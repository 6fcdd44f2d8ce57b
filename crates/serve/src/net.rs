//! Transport: localhost TCP or unix-domain sockets behind one enum.
//!
//! The protocol layer ([`crate::proto`]) only needs `Read + Write`; this
//! module supplies the two stream flavors, listener-side accept with
//! polling (so the accept loop can observe a shutdown flag), and a tiny
//! endpoint syntax shared by every binary: `tcp://HOST:PORT` (a bare
//! `HOST:PORT` also works) and `unix://PATH` (a bare path also works).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens and a client connects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7345`. Port 0 binds an ephemeral port;
    /// the bound endpoint reported by [`NetListener::bind`] carries the
    /// real port.
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Parses an endpoint: `tcp://HOST:PORT`, `unix://PATH`, a bare
    /// `HOST:PORT`, or (on unix) a bare filesystem path.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("unix://") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        #[cfg(not(unix))]
        if s.starts_with("unix://") {
            return Err("unix sockets are not supported on this platform".to_owned());
        }
        if looks_like_tcp(s) {
            return Ok(Endpoint::Tcp(s.to_owned()));
        }
        #[cfg(unix)]
        {
            Ok(Endpoint::Unix(PathBuf::from(s)))
        }
        #[cfg(not(unix))]
        {
            Err(format!("'{s}' is not a HOST:PORT address"))
        }
    }
}

/// A bare `HOST:PORT` (the port all-digits) as opposed to a filesystem
/// path.
fn looks_like_tcp(s: &str) -> bool {
    match s.rsplit_once(':') {
        Some((host, port)) => {
            !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// A listening socket of either flavor.
pub enum NetListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds `endpoint`, returning the listener plus the endpoint actually
    /// bound (with the real port when `endpoint` asked for port 0). A
    /// stale unix socket file left by a previous process is removed first.
    pub fn bind(endpoint: &Endpoint) -> io::Result<(NetListener, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
                Ok((NetListener::Tcp(listener), bound))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // The daemon owns its socket path: a leftover file from a
                // crashed predecessor would otherwise make bind fail with
                // AddrInUse forever.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok((NetListener::Unix(listener), endpoint.clone()))
            }
        }
    }

    /// Switches the listener between blocking and polling accepts.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            NetListener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection. TCP connections get `TCP_NODELAY`: every
    /// frame is one write, so there is nothing for Nagle's algorithm to
    /// coalesce, only replies to delay.
    pub fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(NetStream::Tcp(s))
            }
            #[cfg(unix)]
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
        }
    }
}

/// A connected stream of either flavor.
pub enum NetStream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Connects to `endpoint`, with `TCP_NODELAY` on TCP (see
    /// [`NetListener::accept`]).
    pub fn connect(endpoint: &Endpoint) -> io::Result<NetStream> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(NetStream::Tcp(s))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(NetStream::Unix),
        }
    }

    /// A second handle on the same socket (shared file descriptor), so one
    /// thread can read while others write responses.
    pub fn try_clone(&self) -> io::Result<NetStream> {
        match self {
            NetStream::Tcp(s) => s.try_clone().map(NetStream::Tcp),
            #[cfg(unix)]
            NetStream::Unix(s) => s.try_clone().map(NetStream::Unix),
        }
    }

    /// Sets the read timeout (None blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_syntax_round_trips() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7345").unwrap(),
            Endpoint::Tcp("127.0.0.1:7345".to_owned())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".to_owned())
        );
        #[cfg(unix)]
        {
            assert_eq!(
                Endpoint::parse("unix:///tmp/am.sock").unwrap(),
                Endpoint::Unix(PathBuf::from("/tmp/am.sock"))
            );
            assert_eq!(
                Endpoint::parse("/tmp/am.sock").unwrap(),
                Endpoint::Unix(PathBuf::from("/tmp/am.sock"))
            );
            assert_eq!(
                Endpoint::parse("unix:///tmp/am.sock").unwrap().to_string(),
                "unix:///tmp/am.sock"
            );
        }
        assert_eq!(
            Endpoint::parse("tcp://[::1]:80").unwrap().to_string(),
            "tcp://[::1]:80"
        );
    }

    #[test]
    fn ephemeral_tcp_bind_reports_the_real_port() {
        let (listener, bound) =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let Endpoint::Tcp(addr) = &bound else {
            panic!("tcp endpoint expected")
        };
        assert!(!addr.ends_with(":0"), "{addr}");
        drop(listener);
    }

    #[test]
    fn both_ends_of_a_tcp_connection_disable_nagle() {
        let (listener, bound) =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let client = NetStream::connect(&bound).unwrap();
        let server = listener.accept().unwrap();
        for (end, stream) in [("client", &client), ("server", &server)] {
            let NetStream::Tcp(s) = stream else {
                panic!("{end}: tcp stream expected")
            };
            assert!(s.nodelay().unwrap(), "{end} end has Nagle enabled");
        }
    }
}
