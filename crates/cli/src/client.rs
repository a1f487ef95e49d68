//! A small synchronous client for the `gz serve` front door.
//!
//! Speaks the wire v7 serve dialect: one `ClientHello` handshake, then any
//! interleaving of `UpdateBatch` (acked durably before the reply) and
//! `Query` (answered from a sealed epoch). Used by the hostile-client and
//! crash tests and the repo benchmark's load generator; it is also the
//! reference for writing clients in other languages.

use crate::serve::ClientStream;
use graph_zeppelin::TransportTimeouts;
use gz_stream::wire::{QueryAnswer, QueryKind, WireMessage, WireUpdate};
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
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
    /// The transport itself failed (disconnects, deadlines, bad frames).
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy { active, max_clients } => {
                write!(f, "daemon is busy ({active}/{max_clients} clients)")
            }
            ClientError::Rejected(msg) => write!(f, "daemon rejected the request: {msg}"),
            ClientError::Io(e) => write!(f, "serve connection failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A connected serve client.
#[derive(Debug)]
pub struct ServeClient {
    stream: ClientStream,
    acked: u64,
    num_nodes: u64,
}

impl ServeClient {
    /// Connect over TCP and complete the `ClientHello` handshake.
    pub fn connect_tcp(
        addr: &str,
        timeouts: &TransportTimeouts,
    ) -> Result<ServeClient, ClientError> {
        let stream = match timeouts.connect {
            Some(d) => {
                let mut last = None;
                let mut found = None;
                for sock in std::net::ToSocketAddrs::to_socket_addrs(addr)? {
                    match TcpStream::connect_timeout(&sock, d) {
                        Ok(s) => {
                            found = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match found {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Io(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                format!("{addr} resolved to no addresses"),
                            )
                        })));
                    }
                }
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        ServeClient::handshake(ClientStream::Tcp(stream))
    }

    /// Connect over a Unix socket and complete the handshake.
    pub fn connect_unix(
        path: &Path,
        timeouts: &TransportTimeouts,
    ) -> Result<ServeClient, ClientError> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        ServeClient::handshake(ClientStream::Unix(stream))
    }

    fn handshake(mut stream: ClientStream) -> Result<ServeClient, ClientError> {
        WireMessage::ClientHello.write_to(&mut stream)?;
        stream.flush()?;
        match WireMessage::read_from(&mut stream)? {
            WireMessage::ClientHelloAck { num_nodes, acked } => {
                Ok(ServeClient { stream, acked, num_nodes })
            }
            WireMessage::Busy { active, max_clients } => {
                Err(ClientError::Busy { active, max_clients })
            }
            WireMessage::ErrorReply { message } => Err(ClientError::Rejected(message)),
            other => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected ClientHelloAck, got {}", other.name()),
            ))),
        }
    }

    /// Updates the daemon has acked as durable on this stream (from the
    /// handshake, advanced by every [`ServeClient::send_updates`]).
    pub fn acked(&self) -> u64 {
        self.acked
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
        WireMessage::UpdateBatch { updates }.write_to(&mut self.stream)?;
        self.stream.flush()?;
        match WireMessage::read_from(&mut self.stream)? {
            WireMessage::UpdateAck { acked } => {
                self.acked = acked;
                Ok(acked)
            }
            WireMessage::ErrorReply { message } => Err(ClientError::Rejected(message)),
            other => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected UpdateAck, got {}", other.name()),
            ))),
        }
    }

    fn query(&mut self, kind: QueryKind) -> Result<QueryAnswer, ClientError> {
        WireMessage::Query { kind }.write_to(&mut self.stream)?;
        self.stream.flush()?;
        match WireMessage::read_from(&mut self.stream)? {
            WireMessage::QueryResult { answer } => Ok(answer),
            WireMessage::ErrorReply { message } => Err(ClientError::Rejected(message)),
            other => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected QueryResult, got {}", other.name()),
            ))),
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
        WireMessage::Shutdown.write_to(&mut self.stream)?;
        self.stream.flush()?;
        Ok(())
    }
}

fn mismatched_answer(got: &QueryAnswer) -> ClientError {
    let name = match got {
        QueryAnswer::NumComponents(_) => "NumComponents",
        QueryAnswer::Components(_) => "Components",
        QueryAnswer::SpanningForest(_) => "SpanningForest",
    };
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("daemon answered the wrong query kind ({name})"),
    ))
}
