//! The accept loop waits on the listener's readiness, not on a sleep: a
//! connection is accepted as soon as it arrives, so sequential round
//! trips cost what a request costs. The 250 ms bound is half of what the
//! 50 round trips below cost when each waits out a 10 ms accept poll.
//!
//! Kept in its own test binary, so no concurrent sweep competes with the
//! round trips for the cores.

use memx::{http_request, ServeConfig, Server};
use std::time::{Duration, Instant};

#[test]
fn fifty_health_round_trips_take_under_250_ms() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let start = Instant::now();
    for _ in 0..50 {
        let r = http_request(&addr, "GET", "/v1/health", b"").expect("reachable");
        assert_eq!(r.code, 200);
    }
    let took = start.elapsed();
    server.request_shutdown();
    server.join();
    assert!(
        took < Duration::from_millis(250),
        "50 health round trips took {took:?}"
    );
}
