//! Minimal blocking HTTP/1.1 substrate.
//!
//! The paper's prototypes live in the web-request path: WebBench clients
//! speak HTTP to a redirector, which either answers `302 Found` (Layer-7)
//! or forwards bytes (Layer-4) to Apache servers. This crate is that
//! substrate, built from scratch on `std::net`:
//!
//! * [`HttpRequest`] / [`HttpResponse`] — message types with strict
//!   request-line/header parsing and `Content-Length` bodies;
//! * [`HttpServer`] — a blocking accept loop with a thread per connection
//!   and cooperative shutdown;
//! * [`HttpClient`] — a one-request-per-connection client that can follow
//!   `302` redirects up to a bound (WebBench 4.01 famously could not — the
//!   paper fronts it with an Apache proxy; our client plays both roles).
//!
//! `Connection: close` semantics throughout: every request uses a fresh
//! connection, matching the short-lived-request model of the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod clock;
mod error;
mod message;
mod origin;
mod server;

pub use client::{FetchResult, HttpClient};
pub use clock::{wall_clock, ClockFn};
pub use error::HttpError;
pub use message::{
    header_block_end, parse_request_head, scan_request_head, HttpRequest, HttpResponse, Method,
    RequestHead, StatusCode,
};
pub use origin::{OriginServer, TokenBucket};
pub use server::{handler, Handler, HttpServer};
