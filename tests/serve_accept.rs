//! Tier-1 coverage of the service's accept path.
//!
//! `cargo test -q` at the workspace root does not run the `gmap-serve`
//! integration suites, so the accept-path checks are included here from
//! their one source in `crates/serve/tests/accept/mod.rs`: fresh
//! connections are not charged a poll interval, idle shutdown is prompt
//! on every bind and in a fleet, and a connection opened before
//! `shutdown()` is still answered.

#[path = "../crates/serve/tests/accept/mod.rs"]
mod accept;
