//! Socket plumbing shared by the daemon and the client: one enum over
//! TCP and Unix-domain streams so the rest of the crate is
//! transport-agnostic. An address containing a `/` is a Unix socket
//! path; anything else is a TCP `host:port`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

/// Whether `addr` names a Unix socket path (vs a TCP `host:port`).
pub(crate) fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

/// A connected stream over either transport.
pub(crate) enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Socket {
    pub(crate) fn connect(addr: &str) -> std::io::Result<Socket> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            return Ok(Socket::Unix(UnixStream::connect(addr)?));
            #[cfg(not(unix))]
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        Ok(Socket::tcp(TcpStream::connect(addr)?))
    }

    /// Wraps a TCP stream with Nagle's algorithm off: each wire line is
    /// one write, and it must not wait for the peer's delayed
    /// acknowledgement.
    fn tcp(stream: TcpStream) -> Socket {
        let _ = stream.set_nodelay(true);
        Socket::Tcp(stream)
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Socket> {
        Ok(match self {
            Socket::Tcp(s) => Socket::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Socket::Unix(s) => Socket::Unix(s.try_clone()?),
        })
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Socket::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport. Unix listeners remove their
/// socket file on drop.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub(crate) fn bind(addr: &str) -> std::io::Result<Listener> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                // A stale socket file from a dead daemon would make bind
                // fail; removing it is safe because a *live* daemon would
                // still hold the inode open.
                let _ = std::fs::remove_file(addr);
                return Ok(Listener::Unix(
                    UnixListener::bind(addr)?,
                    PathBuf::from(addr),
                ));
            }
            #[cfg(not(unix))]
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// The resolved address clients should connect to (TCP resolves
    /// ephemeral port 0 to the actual port).
    pub(crate) fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "?".to_string(), |a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Socket> {
        Ok(match self {
            Listener::Tcp(l) => Socket::tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l, _) => Socket::Unix(l.accept()?.0),
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}
