//! A small blocking client for the apex-net protocol.
//!
//! Two usage styles:
//!
//! * **closed loop** — [`Client::call`] sends one request and blocks
//!   for its response (one outstanding request at a time);
//! * **open loop / pipelined** — [`Client::send`] many requests, then
//!   [`Client::recv`] responses as they arrive; ids correlate them
//!   (workers race, so responses may be reordered).
//!
//! [`Client::call_retrying`] layers fault tolerance on the closed loop:
//! a broken connection is transparently re-dialed (the resolved peer
//! addresses are kept from `connect`), and an explicit shed response
//! (`Overloaded` / `Draining`) is retried after a jittered exponential
//! backoff, up to a bounded attempt budget. Every recovery action is
//! surfaced in [`ClientStats`] so load generators can report how much
//! resilience the run actually consumed.
//!
//! A deadline spans the whole retrying call, not each attempt: the
//! absolute deadline is fixed at the first send, every resend carries
//! the budget that is left, backoff sleeps are clamped to it, and no
//! retry is made once it is spent.
//!
//! Connecting with a list of addresses (`Client::connect(&addrs[..])`)
//! makes one client fail over across a replica pool: every re-dial
//! tries the peers in order and takes the first that answers, so a
//! replica that is restarting is skipped until it listens again.
//!
//! The load generator and the CLI both sit on this type, as do the
//! server's own end-to-end tests.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::wire::{
    read_message, write_message, Message, Request, Response, WireError, DEFAULT_MAX_FRAME,
};

/// Bounds for [`Client::call_retrying`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first call included (min 1).
    pub attempts: u32,
    /// Base backoff slept before retrying a shed response; doubles per
    /// retry up to `backoff_cap`. The actual sleep is jittered to
    /// between half and all of the current backoff.
    pub backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
        }
    }
}

/// Monotonic counters for the client's recovery actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful re-dials after a broken connection.
    pub reconnects: u64,
    /// Shed responses (`Overloaded` / `Draining`) absorbed by a
    /// backoff-and-retry instead of being returned to the caller.
    pub retried_sheds: u64,
    /// Calls that exhausted the attempt budget and returned the final
    /// shed response to the caller anyway.
    pub retry_give_ups: u64,
}

/// A blocking connection to an apex-net server.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    next_id: u64,
    max_frame: usize,
    /// Resolved peer addresses, kept for reconnects.
    peers: Vec<SocketAddr>,
    stats: ClientStats,
    /// xorshift64 state for backoff jitter (no RNG dependency here).
    jitter: u64,
}

/// Dials the first reachable peer.
fn open(peers: &[SocketAddr]) -> Result<(TcpStream, TcpStream), WireError> {
    let mut last: Option<io::Error> = None;
    for addr in peers {
        match TcpStream::connect(addr) {
            Ok(writer) => {
                writer.set_nodelay(true)?;
                let reader = writer.try_clone()?;
                return Ok((reader, writer));
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last {
        Some(e) => WireError::Io(e),
        None => WireError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to no peers",
        )),
    })
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let (reader, writer) = open(&peers)?;
        let port = peers.first().map_or(0, |a| u64::from(a.port()));
        Ok(Client {
            reader,
            writer,
            next_id: 0,
            max_frame: DEFAULT_MAX_FRAME,
            peers,
            stats: ClientStats::default(),
            // Any nonzero seed works; mix the port so two clients of
            // different servers don't sleep in lockstep.
            jitter: 0x9E37_79B9_7F4A_7C15 ^ (port << 32) | 1,
        })
    }

    /// Drops the current connection and dials the peers again. Request
    /// ids keep counting up, so responses never collide across the two
    /// connection lives.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        let (reader, writer) = open(&self.peers)?;
        self.reader = reader;
        self.writer = writer;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Recovery counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Bounds one blocking [`Client::recv`] (and therefore
    /// [`Client::call`]): `None` blocks forever (the default). A read
    /// that trips the timeout surfaces as [`WireError::Io`] and leaves
    /// the stream mid-frame — callers should [`Client::reconnect`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request without waiting; returns its id.
    /// `deadline_ms` 0 means "no client deadline" (the server may still
    /// apply its configured default).
    pub fn send(&mut self, query: &str, deadline_ms: u32) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        write_message(
            &mut self.writer,
            &Message::Request(Request {
                id,
                deadline_ms,
                query: query.to_string(),
            }),
        )?;
        Ok(id)
    }

    /// Receives the next response in arrival order. `Ok(None)` means
    /// the server closed the connection cleanly (drain finished).
    pub fn recv(&mut self) -> Result<Option<Response>, WireError> {
        match read_message(&mut self.reader, self.max_frame)? {
            None => Ok(None),
            Some(Message::Response(resp)) => Ok(Some(resp)),
            // A server sending *requests* is a protocol error.
            Some(Message::Request(_)) => Err(WireError::Malformed("server sent a request frame")),
        }
    }

    /// Closed-loop convenience: send one request, block for *its*
    /// response. Assumes no other requests are outstanding on this
    /// connection (stray earlier responses are skipped by id).
    pub fn call(&mut self, query: &str, deadline_ms: u32) -> Result<Response, WireError> {
        let id = self.send(query, deadline_ms)?;
        loop {
            match self.recv()? {
                None => return Err(WireError::ConnectionClosed),
                Some(resp) if resp.id == id => return Ok(resp),
                Some(_) => {}
            }
        }
    }

    /// [`Client::call`] with bounded fault tolerance: transport
    /// failures (broken pipe, truncated frame, clean close mid-call)
    /// trigger a reconnect and a resend; shed responses trigger a
    /// jittered-backoff retry. After `policy.attempts` total tries, or
    /// once a nonzero `deadline_ms` measured from the first send is
    /// spent, the last response or error is returned as-is — bounded,
    /// never an infinite loop. Each resend carries the remaining
    /// budget. Protocol errors (`BadVersion`, `Malformed`, …) are
    /// returned immediately: retrying cannot fix a peer speaking a
    /// different protocol.
    pub fn call_retrying(
        &mut self,
        query: &str,
        deadline_ms: u32,
        policy: &RetryPolicy,
    ) -> Result<Response, WireError> {
        let attempts = policy.attempts.max(1);
        let mut backoff = policy.backoff;
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now().checked_add(Duration::from_millis(u64::from(deadline_ms))))
            .flatten();
        let mut budget_ms = deadline_ms;
        let mut result = self.call(query, deadline_ms);
        for _ in 1..attempts {
            let shed = match &result {
                Ok(resp) if resp.status.is_shed() => {
                    let mut sleep = self.jittered(backoff, policy.backoff_cap);
                    if let Some(d) = deadline {
                        sleep = sleep.min(d.saturating_duration_since(Instant::now()));
                    }
                    std::thread::sleep(sleep);
                    backoff = backoff.saturating_mul(2).min(policy.backoff_cap);
                    true
                }
                Ok(_) => return result,
                Err(WireError::Io(_) | WireError::ConnectionClosed | WireError::Truncated) => {
                    // A dead connection: re-dial before resending. A
                    // failed reconnect is terminal (the peers are gone).
                    self.reconnect()?;
                    false
                }
                Err(_) => return result,
            };
            if let Some(d) = deadline {
                // Whole milliseconds left; 0 would mean "no deadline"
                // on the wire, so a sub-millisecond rest is spent.
                let left = d.saturating_duration_since(Instant::now()).as_millis();
                budget_ms = left.min(u128::from(u32::MAX)) as u32;
                if budget_ms == 0 {
                    break;
                }
            }
            if shed {
                self.stats.retried_sheds += 1;
            }
            result = self.call(query, budget_ms);
        }
        if matches!(&result, Ok(resp) if resp.status.is_shed()) {
            self.stats.retry_give_ups += 1;
        }
        result
    }

    /// A sleep between `d/2` and `d` (capped), decorrelating retry
    /// storms across clients without an RNG dependency.
    fn jittered(&mut self, d: Duration, cap: Duration) -> Duration {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let d = d.min(cap);
        let half = d / 2;
        let span = half.as_micros().min(u128::from(u64::MAX)) as u64;
        let extra = if span == 0 { 0 } else { x % (span + 1) };
        half + Duration::from_micros(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Status, DEFAULT_MAX_FRAME};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A scripted one-connection-at-a-time responder: for each accepted
    /// connection it answers `per_conn` requests with the scripted
    /// statuses (then drops the connection, mid-script or not).
    fn scripted_server(script: Vec<Vec<Option<Status>>>) -> SocketAddr {
        recording_server(script).0
    }

    /// [`scripted_server`] that also reports each request's
    /// `deadline_ms`, in arrival order.
    fn recording_server(script: Vec<Vec<Option<Status>>>) -> (SocketAddr, mpsc::Receiver<u32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (seen, deadlines) = mpsc::channel();
        std::thread::spawn(move || {
            for conn_script in script {
                let (mut stream, _) = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                for action in conn_script {
                    let req = match read_message(&mut stream, DEFAULT_MAX_FRAME) {
                        Ok(Some(Message::Request(r))) => r,
                        _ => break,
                    };
                    let _ = seen.send(req.deadline_ms);
                    let Some(status) = action else {
                        break; // scripted connection drop: no response
                    };
                    let resp = Response {
                        id: req.id,
                        status,
                        generation: 1,
                        total_rows: 0,
                        rows: vec![],
                        pages_read: 0,
                        join_work: 0,
                        server_us: 0,
                        plan_digest: 0,
                    };
                    if write_message(&mut stream, &Message::Response(resp)).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, deadlines)
    }

    #[test]
    fn retries_sheds_with_backoff_until_served() {
        let addr = scripted_server(vec![vec![
            Some(Status::Overloaded),
            Some(Status::Draining),
            Some(Status::Ok),
        ]]);
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .call_retrying("//a", 0, &RetryPolicy::default())
            .expect("call");
        assert_eq!(resp.status, Status::Ok);
        let stats = c.stats();
        assert_eq!(stats.retried_sheds, 2);
        assert_eq!(stats.retry_give_ups, 0);
        assert_eq!(stats.reconnects, 0);
    }

    #[test]
    fn bounded_attempts_surface_the_final_shed() {
        let addr = scripted_server(vec![vec![Some(Status::Overloaded); 8]]);
        let mut c = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            attempts: 3,
            ..RetryPolicy::default()
        };
        let resp = c.call_retrying("//a", 0, &policy).expect("call");
        assert_eq!(resp.status, Status::Overloaded, "give-up returns the shed");
        let stats = c.stats();
        assert_eq!(stats.retried_sheds, 2, "attempts are bounded");
        assert_eq!(stats.retry_give_ups, 1);
    }

    #[test]
    fn reconnects_across_a_dropped_connection() {
        // First connection dies without answering; the second serves.
        let addr = scripted_server(vec![vec![None], vec![Some(Status::Ok)]]);
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .call_retrying("//a", 0, &RetryPolicy::default())
            .expect("call");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(c.stats().reconnects, 1);
    }

    #[test]
    fn plain_call_still_errors_through() {
        let addr = scripted_server(vec![vec![None]]);
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.call("//a", 0).is_err(), "call has no retry semantics");
    }

    #[test]
    fn retries_spend_one_deadline_budget() {
        let (addr, deadlines) = recording_server(vec![vec![Some(Status::Overloaded); 200]]);
        let mut c = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            attempts: 200,
            ..RetryPolicy::default()
        };
        let t0 = Instant::now();
        let resp = c.call_retrying("//a", 30, &policy).expect("call");
        let took = t0.elapsed();
        assert_eq!(
            resp.status,
            Status::Overloaded,
            "the spent budget returns the shed"
        );
        assert_eq!(c.stats().retry_give_ups, 1);
        let bound = Duration::from_millis(30) + policy.backoff_cap + Duration::from_millis(150);
        assert!(took < bound, "call took {took:?}, bound {bound:?}");
        let sent: Vec<u32> = deadlines.try_iter().collect();
        assert_eq!(sent.first(), Some(&30));
        assert!(sent.len() > 1, "the shed was retried");
        for pair in sent.windows(2) {
            assert!(
                pair[1] < 30 && pair[1] <= pair[0],
                "resent budgets {sent:?}"
            );
        }
        assert!(sent.iter().all(|&ms| ms > 0), "0 would lift the deadline");
    }
}
