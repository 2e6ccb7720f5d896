//! The server layer: storage-server queueing, service, and the per-copy
//! timeline token.
//!
//! Servers are `Np`-slot FIFO queues with exponentially distributed,
//! bimodally fluctuating service times (wrapping [`netrs_kvstore`]'s
//! [`Server`] model). This layer moves request copies through arrival →
//! queue → service → done and stamps their timeline; it neither routes
//! packets (the fabric's job) nor decides where replies go next (the
//! policy's job).

use netrs_kvstore::{Arrival, Server, ServerConfig, ServerId, ServerStatus};
use netrs_simcore::{
    DeviceCounter, DeviceId, DeviceProbe, EventQueue, SimDuration, SimRng, SimTime,
};
use netrs_topology::SwitchId;

use crate::cluster::{Ev, ReqId};
use crate::fabric::Fabric;

/// Everything a request copy carries through the network and the server
/// queue, including its observability timeline: the consecutive event
/// timestamps that decompose end-to-end latency into exact phases
/// (steer → selection → to-server → server queue → service → reply).
#[derive(Debug, Clone, Copy)]
pub struct ServerToken {
    pub(crate) req: ReqId,
    pub(crate) server: ServerId,
    /// When this copy left its last sender (client or selector).
    pub(crate) copy_sent_at: SimTime,
    /// The RSNode the copy passed, if any, and when it left it.
    pub(crate) rsnode: Option<SwitchId>,
    pub(crate) rsnode_sent_at: SimTime,
    /// When the logical request was issued at the client.
    pub(crate) issued_at: SimTime,
    /// When the copy reached its selection point (the RSNode for
    /// in-network schemes; `issued_at` for client-side selection).
    pub(crate) steered_at: SimTime,
    /// Accelerator queue wait (zero for client schemes).
    pub(crate) selection_wait: SimDuration,
    /// When the copy arrived at the server.
    pub(crate) server_arrived_at: SimTime,
    /// When the server started serving it (after any queueing).
    pub(crate) service_started_at: SimTime,
    /// When the server finished serving it.
    pub(crate) served_at: SimTime,
}

impl ServerToken {
    /// A token whose timeline starts at `issued_at` and whose selection
    /// interval is `[steered_at, copy_sent_at]`; the server-side
    /// timestamps are stamped as the copy progresses.
    pub(crate) fn new(
        req: ReqId,
        server: ServerId,
        issued_at: SimTime,
        steered_at: SimTime,
        selection_wait: SimDuration,
        copy_sent_at: SimTime,
        rsnode: Option<SwitchId>,
    ) -> Self {
        ServerToken {
            req,
            server,
            copy_sent_at,
            rsnode,
            rsnode_sent_at: copy_sent_at,
            issued_at,
            steered_at,
            selection_wait,
            server_arrived_at: copy_sent_at,
            service_started_at: copy_sent_at,
            served_at: copy_sent_at,
        }
    }
}

/// The cluster's storage servers.
pub(crate) struct ServerPool {
    servers: Vec<Server<ServerToken>>,
    /// Per server: in-service copies lost to a crash whose `ServerDone`
    /// events are still in the event queue and must be absorbed.
    ghosts: Vec<u32>,
    /// Per server: when it last crashed (distinguishes ghost completions
    /// from post-recovery ones).
    crash_at: Vec<SimTime>,
}

impl ServerPool {
    /// Builds `count` servers, each with its own deterministic RNG stream
    /// (`root.fork(20_000 + i)`).
    pub(crate) fn new(count: u32, cfg: &ServerConfig, root: &SimRng) -> Self {
        let servers: Vec<_> = (0..count)
            .map(|i| Server::new(ServerId(i), cfg.clone(), root.fork(20_000 + u64::from(i))))
            .collect();
        ServerPool {
            ghosts: vec![0; servers.len()],
            crash_at: vec![SimTime::ZERO; servers.len()],
            servers,
        }
    }

    /// A server redraws its mean service time (the bimodal fluctuation).
    pub(crate) fn fluctuate(&mut self, server: ServerId) {
        self.servers[server.0 as usize].fluctuate();
    }

    /// A request copy arrives: start service if a slot is free, queue
    /// otherwise. Stamps the token's arrival and (provisional) service
    /// start.
    pub(crate) fn arrive<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        mut token: ServerToken,
        fabric: &mut Fabric<D>,
        queue: &mut EventQueue<Ev>,
    ) {
        token.server_arrived_at = now;
        // Provisional: correct if a slot is free; a queued copy gets its
        // real service start stamped when it is dispatched.
        token.service_started_at = now;
        let dev = DeviceId::Server(token.server.0);
        fabric.devices.bump(dev, DeviceCounter::Op, 1);
        let server = &mut self.servers[token.server.0 as usize];
        match server.arrive(token, now) {
            Arrival::Started { finish_at } => {
                queue.schedule_at(
                    finish_at,
                    Ev::ServerDone {
                        server: token.server,
                        token,
                    },
                );
            }
            Arrival::Queued => {
                // All slots busy: the copy joins the wait queue
                // (depth matches `Server::waiting`).
                fabric.devices.queue_delta(now, dev, 1);
            }
        }
    }

    /// A server finishes one copy: stamp its completion, account the busy
    /// time, dispatch the next queued copy if any, and report the
    /// piggybacked status the response will carry. Reply routing is the
    /// caller's (policy's) job.
    pub(crate) fn finish_service<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        server_id: ServerId,
        token: &mut ServerToken,
        fabric: &mut Fabric<D>,
        queue: &mut EventQueue<Ev>,
    ) -> ServerStatus {
        token.served_at = now;
        let server_dev = DeviceId::Server(server_id.0);
        fabric
            .devices
            .busy(server_dev, now - token.service_started_at);
        let server = &mut self.servers[server_id.0 as usize];
        let status = server.status();
        if let Some((mut next_token, finish_at)) = server.complete(now).next {
            // The queued copy enters service now that a slot freed up.
            next_token.service_started_at = now;
            queue.schedule_at(
                finish_at,
                Ev::ServerDone {
                    server: server_id,
                    token: next_token,
                },
            );
            fabric.devices.queue_delta(now, server_dev, -1);
        }
        status
    }

    // ---- faults ---------------------------------------------------------

    /// Whether the server is currently crashed.
    pub(crate) fn is_down(&self, server: ServerId) -> bool {
        !self.servers[server.0 as usize].is_up()
    }

    /// Fail-stops a server. Queued copies are drained (their device queue
    /// accounting reversed) and returned as lost request ids; in-service
    /// copies become ghosts whose pending `ServerDone` events
    /// [`Self::absorb_ghost`] swallows. No-op if already down.
    pub(crate) fn crash<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        server: ServerId,
        fabric: &mut Fabric<D>,
    ) -> Vec<u64> {
        let idx = server.0 as usize;
        if !self.servers[idx].is_up() {
            return Vec::new();
        }
        let (queued, in_service) = self.servers[idx].crash(now);
        self.ghosts[idx] += in_service;
        self.crash_at[idx] = now;
        let dev = DeviceId::Server(server.0);
        let mut lost = Vec::with_capacity(queued.len());
        for t in queued {
            fabric.devices.queue_delta(now, dev, -1);
            lost.push(t.req.0);
        }
        lost
    }

    /// A crashed server comes back empty. No-op if already up.
    pub(crate) fn recover(&mut self, now: SimTime, server: ServerId) {
        let idx = server.0 as usize;
        if !self.servers[idx].is_up() {
            self.servers[idx].recover(now);
        }
    }

    /// Applies a service-rate multiplier (the `ServerSlowdown` fault).
    pub(crate) fn set_rate_factor(&mut self, server: ServerId, factor: f64) {
        self.servers[server.0 as usize].set_rate_factor(factor);
    }

    /// Whether this `ServerDone` belongs to a copy that was in service
    /// when the server crashed (its completion must be discarded). Ghost
    /// tokens started service at or before the crash instant.
    pub(crate) fn absorb_ghost(&mut self, server: ServerId, token: &ServerToken) -> bool {
        let idx = server.0 as usize;
        if self.ghosts[idx] > 0 && token.service_started_at <= self.crash_at[idx] {
            self.ghosts[idx] -= 1;
            return true;
        }
        false
    }

    /// Mean instantaneous slot occupancy across servers.
    pub(crate) fn mean_occupancy(&self) -> f64 {
        self.servers.iter().map(|s| s.slot_occupancy()).sum::<f64>() / self.servers.len() as f64
    }

    /// Mean slot utilization over `[0, now]` across servers.
    pub(crate) fn mean_utilization(&self, now: SimTime) -> f64 {
        self.servers.iter().map(|s| s.utilization(now)).sum::<f64>() / self.servers.len() as f64
    }
}
