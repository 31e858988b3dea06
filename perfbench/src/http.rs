//! A minimal HTTP/1.1 client for the query server's one-request-per-
//! connection protocol.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side limit on one exchange. It is longer than the server's
/// request deadline, so a slow answer shows up as the server's 504 rather
/// than as a client timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(15);

/// Send one request and read the whole response: `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    request(addr, "POST", path, body)
}

pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, "GET", path, "")
}
