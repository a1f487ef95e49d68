//! The framed link: what a connection is, for both daemons, the serve
//! client and the shard coordinator.
//!
//! A [`Stream`] is a TCP or Unix socket with deadlines; [`Stream::dial_tcp`]
//! and [`Stream::dial_unix`] are the only places a connection is opened. A
//! [`Link`] wraps any byte stream (a `Stream`, or a test's fake) and moves
//! whole [`WireMessage`] frames over it: [`Link::recv`] is one
//! `read_exact` pair, [`Link::send`] one `write_all`, each counts its frame
//! and bytes into the link's own [`LinkStats`], and both report failure as
//! the one classified [`LinkError`] — timeout, peer gone, or malformed.
//! What to do about each class is the caller's policy: a coordinator
//! respawns, a worker exits, the front door answers `ErrorReply` and keeps
//! serving everyone else.

use crate::error::LinkError;
use gz_gutters::LinkStats;
use gz_stream::wire::WireMessage;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Socket deadlines for a link. `None` means block forever — the default,
/// and the right call for in-process `UnixStream` pairs where the peer
/// cannot silently vanish. Multi-process deployments set `read` (and
/// usually `write`) so a SIGKILLed peer surfaces as a
/// [`TransportErrorKind::Timeout`](crate::error::TransportErrorKind) instead
/// of a hang.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportTimeouts {
    /// Deadline for establishing a TCP connection.
    pub connect: Option<Duration>,
    /// Deadline for each blocking read on an established link.
    pub read: Option<Duration>,
    /// Deadline for each blocking write on an established link.
    pub write: Option<Duration>,
}

impl TransportTimeouts {
    /// One deadline for everything — the common case.
    pub fn all(d: Duration) -> Self {
        TransportTimeouts { connect: Some(d), read: Some(d), write: Some(d) }
    }
}

/// A connected socket of either family.
#[derive(Debug)]
pub enum Stream {
    /// TCP, with Nagle off: frames are written whole, and request/reply
    /// turns must not stall on delayed ACKs.
    Tcp(TcpStream),
    /// Unix domain socket.
    Unix(UnixStream),
}

impl Stream {
    /// Dial `host:port` with `timeouts` installed. The connect deadline
    /// applies per resolved candidate (`connect_timeout` needs resolved
    /// addresses).
    pub fn dial_tcp(addr: &str, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        let Some(deadline) = timeouts.connect else {
            return Stream::tcp(TcpStream::connect(addr)?, timeouts);
        };
        let mut last = std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{addr} resolved to no addresses"),
        );
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, deadline) {
                Ok(stream) => return Stream::tcp(stream, timeouts),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Dial a Unix socket path with `timeouts` installed.
    pub fn dial_unix(path: &Path, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        Stream::unix(UnixStream::connect(path)?, timeouts)
    }

    /// A connected TCP socket — dialed, or handed out by a listener — with
    /// Nagle off and `timeouts` installed.
    pub fn tcp(stream: TcpStream, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        stream.set_nodelay(true)?;
        Stream::Tcp(stream).with(timeouts)
    }

    /// A connected Unix socket with `timeouts` installed.
    pub fn unix(stream: UnixStream, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        Stream::Unix(stream).with(timeouts)
    }

    fn with(mut self, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        self.apply_timeouts(timeouts)?;
        Ok(self)
    }

    /// A second handle to the same socket (for closing it from elsewhere).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Close both directions: a thread blocked reading or writing this
    /// socket sees the peer gone.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(()) // sockets do not buffer in user space
    }
}

/// A byte stream that can sit under a coordinator's [`Link`] and (where the
/// OS supports it) enforce [`TransportTimeouts`]. It is a trait so tests
/// substitute scripted and fault-injecting streams; the default
/// `apply_timeouts` is a no-op so they qualify without ceremony.
pub trait ShardLink: Read + Write + Send {
    /// Install socket deadlines. Streams without kernel timeout support
    /// accept and ignore them.
    fn apply_timeouts(&mut self, _timeouts: &TransportTimeouts) -> std::io::Result<()> {
        Ok(())
    }
}

impl ShardLink for Stream {
    fn apply_timeouts(&mut self, t: &TransportTimeouts) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t.read).and_then(|()| s.set_write_timeout(t.write))
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t.read).and_then(|()| s.set_write_timeout(t.write))
            }
        }
    }
}

/// A stream that carries whole frames, and counts them.
#[derive(Debug)]
pub struct Link<S = Stream> {
    stream: S,
    stats: LinkStats,
}

impl<S> Link<S> {
    /// Frame `stream`.
    pub fn new(stream: S) -> Self {
        Link { stream, stats: LinkStats::new() }
    }

    /// Frames and bytes moved so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The stream underneath.
    pub fn stream(&mut self) -> &mut S {
        &mut self.stream
    }
}

impl<S: Read + Write> Link<S> {
    /// Read one frame.
    pub fn recv(&mut self) -> Result<WireMessage, LinkError> {
        let msg = WireMessage::read_from(&mut self.stream).map_err(|e| LinkError::from_io(&e))?;
        self.stats.frames_in.add(1);
        self.stats.bytes_in.add(msg.frame_len() as u64);
        Ok(msg)
    }

    /// Write one frame.
    pub fn send(&mut self, msg: &WireMessage) -> Result<(), LinkError> {
        msg.write_to(&mut self.stream).map_err(|e| LinkError::from_io(&e))?;
        self.stats.frames_out.add(1);
        self.stats.bytes_out.add(msg.frame_len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportErrorKind;
    use gz_stream::wire::WireUpdate;

    /// Scripted reads, and a count of `write` calls next to what they wrote.
    #[derive(Default)]
    struct Recording {
        replies: std::io::Cursor<Vec<u8>>,
        writes: usize,
        written: Vec<u8>,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `WireMessage::write_to` promises one `write_all` per frame, which is
    /// why no transport buffers; the link must not add a second write (a
    /// length prefix, a flush marker), and must count exactly the bytes
    /// that crossed.
    #[test]
    fn a_frame_is_one_write_and_every_byte_is_counted() {
        let frames = [
            WireMessage::ClientHello,
            WireMessage::UpdateBatch {
                updates: vec![WireUpdate { u: 1, v: 2, is_delete: true }; 64],
            },
            WireMessage::Batch { node: 3, records: vec![1, 2, 3] },
            WireMessage::ErrorReply { message: "no".into() },
        ];
        let mut link = Link::new(Recording::default());
        for frame in &frames {
            link.send(frame).unwrap();
        }
        assert_eq!(link.stream().writes, frames.len(), "one write per frame");
        let written = std::mem::take(&mut link.stream().written);
        assert_eq!(link.stats().frames_out(), frames.len() as u64);
        assert_eq!(link.stats().bytes_out(), written.len() as u64);

        // Read the same bytes back: the same frames, the same count.
        link.stream().replies = std::io::Cursor::new(written.clone());
        for frame in &frames {
            assert_eq!(&link.recv().unwrap(), frame);
        }
        assert_eq!(link.stats().frames_in(), frames.len() as u64);
        assert_eq!(link.stats().bytes_in(), written.len() as u64);
        // And nothing after them: EOF between frames is the peer leaving.
        assert_eq!(link.recv().unwrap_err().kind, TransportErrorKind::PeerGone);
        assert_eq!(link.stats().frames_in(), frames.len() as u64, "a failed read counts nothing");
    }

    #[test]
    fn dialing_nobody_is_a_classified_failure_not_a_hang() {
        // A listener bound and dropped: the port is free and refuses.
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        for timeouts in
            [TransportTimeouts::default(), TransportTimeouts::all(Duration::from_secs(5))]
        {
            let err = Stream::dial_tcp(&port.to_string(), &timeouts).unwrap_err();
            assert_eq!(LinkError::from_io(&err).kind, TransportErrorKind::PeerGone, "{err}");
        }
        let dir = gz_testutil::TempDir::new("gz-link-dial");
        let err = Stream::dial_unix(&dir.join("nobody.sock"), &TransportTimeouts::default());
        assert_eq!(LinkError::from_io(&err.unwrap_err()).kind, TransportErrorKind::PeerGone);
    }
}
