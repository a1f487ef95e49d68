//! A small synchronous client for the `gz serve` front door.
//!
//! Speaks the wire v7 serve dialect: one `ClientHello` handshake, then any
//! interleaving of `UpdateBatch` (acked durably before the reply) and
//! `Query` (answered from a sealed epoch). Used by the hostile-client and
//! crash tests and the repo benchmark's load generator; it is also the
//! reference for writing clients in other languages.

use graph_zeppelin::{GraphDigest, Link, LinkError, Stream, TransportTimeouts};
use gz_stream::wire::{QueryAnswer, QueryKind, WireMessage, WireUpdate};
use std::path::Path;

/// Why a serve interaction failed, typed the way callers branch on it.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon is at `--max-clients`; retry later.
    Busy {
        /// Connections the daemon reported active.
        active: u32,
        /// Its admission limit.
        max_clients: u32,
    },
    /// The daemon refused the request and killed the connection (malformed
    /// traffic, invalid updates, or an ingest/query failure on its side).
    Rejected(String),
    /// The link itself failed: a disconnect, a missed deadline, or a reply
    /// that is not the protocol's answer to the request.
    Link(LinkError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy { active, max_clients } => {
                write!(f, "daemon is busy ({active}/{max_clients} clients)")
            }
            ClientError::Rejected(msg) => write!(f, "daemon rejected the request: {msg}"),
            ClientError::Link(e) => write!(f, "serve connection failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<LinkError> for ClientError {
    fn from(e: LinkError) -> ClientError {
        ClientError::Link(e)
    }
}

/// A connected serve client.
#[derive(Debug)]
pub struct ServeClient {
    link: Link,
    acked: u64,
    num_nodes: u64,
    graph: GraphDigest,
}

impl ServeClient {
    /// Connect over TCP and complete the `ClientHello` handshake.
    pub fn connect_tcp(
        addr: &str,
        timeouts: &TransportTimeouts,
    ) -> Result<ServeClient, ClientError> {
        ServeClient::handshake(Stream::dial_tcp(addr, timeouts))
    }

    /// Connect over a Unix socket and complete the handshake.
    pub fn connect_unix(
        path: &Path,
        timeouts: &TransportTimeouts,
    ) -> Result<ServeClient, ClientError> {
        ServeClient::handshake(Stream::dial_unix(path, timeouts))
    }

    fn handshake(dialed: std::io::Result<Stream>) -> Result<ServeClient, ClientError> {
        let mut link = Link::new(dialed.map_err(|e| LinkError::from_io(&e))?);
        match request(&mut link, &WireMessage::ClientHello)? {
            WireMessage::ClientHelloAck { num_nodes, acked, graph } => {
                Ok(ServeClient { link, acked, num_nodes, graph: *graph })
            }
            WireMessage::Busy { active, max_clients } => {
                Err(ClientError::Busy { active, max_clients })
            }
            other => Err(unexpected("ClientHelloAck", &other)),
        }
    }

    /// Updates the daemon has acked as durable on this stream (from the
    /// handshake, advanced by every [`ServeClient::send_updates`]).
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// The graph digest of the updates the daemon had acked at the
    /// handshake (`gz_graph::digest`): equal to
    /// `GraphDigest::of_updates` of the first [`Self::acked`] updates this
    /// stream sent, if the daemon holds exactly those.
    pub fn hello_graph_digest(&self) -> GraphDigest {
        self.graph
    }

    /// The daemon's vertex universe size.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Ship one batch of `(u, v, is_delete)` updates and wait for the ack.
    /// Returns the daemon's total acked count after the batch.
    pub fn send_updates(&mut self, updates: &[(u32, u32, bool)]) -> Result<u64, ClientError> {
        let updates =
            updates.iter().map(|&(u, v, is_delete)| WireUpdate { u, v, is_delete }).collect();
        match request(&mut self.link, &WireMessage::UpdateBatch { updates })? {
            WireMessage::UpdateAck { acked } => {
                self.acked = acked;
                Ok(acked)
            }
            other => Err(unexpected("UpdateAck", &other)),
        }
    }

    fn query(&mut self, kind: QueryKind) -> Result<QueryAnswer, ClientError> {
        match request(&mut self.link, &WireMessage::Query { kind })? {
            WireMessage::QueryResult { answer } => Ok(answer),
            other => Err(unexpected("QueryResult", &other)),
        }
    }

    /// Number of connected components.
    pub fn query_num_components(&mut self) -> Result<u64, ClientError> {
        match self.query(QueryKind::NumComponents)? {
            QueryAnswer::NumComponents(n) => Ok(n),
            other => Err(mismatched_answer(&other)),
        }
    }

    /// Per-vertex component labels.
    pub fn query_components(&mut self) -> Result<Vec<u32>, ClientError> {
        match self.query(QueryKind::Components)? {
            QueryAnswer::Components(labels) => Ok(labels),
            other => Err(mismatched_answer(&other)),
        }
    }

    /// Spanning-forest edges.
    pub fn query_forest(&mut self) -> Result<Vec<(u32, u32)>, ClientError> {
        match self.query(QueryKind::SpanningForest)? {
            QueryAnswer::SpanningForest(edges) => Ok(edges),
            other => Err(mismatched_answer(&other)),
        }
    }

    /// Say goodbye cleanly so the daemon retires the connection without
    /// counting a disconnect.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        Ok(self.link.send(&WireMessage::Shutdown)?)
    }
}

/// One request/reply turn; the daemon's typed refusal is an error here so
/// every caller matches only on the reply it asked for.
fn request(link: &mut Link, msg: &WireMessage) -> Result<WireMessage, ClientError> {
    link.send(msg)?;
    match link.recv()? {
        WireMessage::ErrorReply { message } => Err(ClientError::Rejected(message)),
        reply => Ok(reply),
    }
}

fn unexpected(wanted: &str, got: &WireMessage) -> ClientError {
    ClientError::Link(LinkError::malformed(format!("expected {wanted}, got {}", got.name())))
}

fn mismatched_answer(got: &QueryAnswer) -> ClientError {
    let name = match got {
        QueryAnswer::NumComponents(_) => "NumComponents",
        QueryAnswer::Components(_) => "Components",
        QueryAnswer::SpanningForest(_) => "SpanningForest",
    };
    ClientError::Link(LinkError::malformed(format!(
        "daemon answered the wrong query kind ({name})"
    )))
}
