//! Client side: [`ServeClient`], a typed wrapper over one blocking
//! keep-alive HTTP connection to the decision server — register, decide
//! (one session or a positional batch), close. The load generator runs
//! one per connection.

use crate::proto::{
    decode_bulk_reply, encode_bulk, BulkSlot, DecisionReply, DecisionRequest, ProtoError,
    SessionSpec,
};
use abr_net::http::{HttpClient, HttpError};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a [`ServeClient`] waits for its socket to take a request or
/// yield a reply byte before it fails with a timeout. A loop answers a
/// decision in microseconds and generates even an 18-level FastMPC table
/// well within a second, so a client still waiting after this long has
/// met a dead or stalled loop, and gets an error instead of blocking
/// forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side failures talking to the decision server.
#[derive(Debug)]
pub enum ServeError {
    /// Transport or framing failure.
    Http(HttpError),
    /// The server answered with a non-200 status.
    Status(u16, String),
    /// The response body did not decode.
    Proto(ProtoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Http(e) => write!(f, "http: {e}"),
            ServeError::Status(code, body) => write!(f, "server said {code}: {body}"),
            ServeError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<HttpError> for ServeError {
    fn from(e: HttpError) -> Self {
        ServeError::Http(e)
    }
}

/// A typed connection to the decision server (one keep-alive socket).
pub struct ServeClient {
    http: HttpClient<TcpStream>,
}

impl ServeClient {
    /// Connects to a decision server. Reads and writes on the connection
    /// time out after [`IO_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, IO_TIMEOUT)
    }

    fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { http: HttpClient::new(stream) })
    }

    fn post_ok(&mut self, path: &str, body: String) -> Result<String, ServeError> {
        let resp = self.http.post(path, body.as_bytes(), "text/plain")?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if resp.status != 200 {
            return Err(ServeError::Status(resp.status, text.trim().to_string()));
        }
        Ok(text)
    }

    /// Registers a session; returns its id.
    pub fn register(&mut self, spec: &SessionSpec) -> Result<u64, ServeError> {
        let body = self.post_ok("/session", spec.encode())?;
        body.trim()
            .strip_prefix("sid ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ServeError::Proto(ProtoError::Bad(format!("sid reply {body:?}"))))
    }

    /// Requests the decision for one chunk.
    pub fn decision(&mut self, req: &DecisionRequest) -> Result<DecisionReply, ServeError> {
        let body = self.post_ok("/decision", req.encode())?;
        DecisionReply::decode(&body).map_err(ServeError::Proto)
    }

    /// Requests decisions for a whole batch of sessions in one
    /// `POST /decisions` round-trip. Slots are positional: `slots[i]`
    /// answers `reqs[i]`, carrying either the decision or the (status,
    /// message) refusal the scalar endpoint would have returned.
    pub fn decisions(&mut self, reqs: &[DecisionRequest]) -> Result<Vec<BulkSlot>, ServeError> {
        let body = self.post_ok("/decisions", encode_bulk(reqs))?;
        let slots = decode_bulk_reply(&body).map_err(ServeError::Proto)?;
        if slots.len() != reqs.len() {
            return Err(ServeError::Proto(ProtoError::Bad(format!(
                "{} requests but {} reply slots",
                reqs.len(),
                slots.len()
            ))));
        }
        Ok(slots)
    }

    /// Retires a session.
    pub fn close_session(&mut self, sid: u64) -> Result<(), ServeError> {
        self.post_ok("/close", format!("sid {sid}\n")).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_server_that_never_answers_times_out_instead_of_hanging() {
        // Accepts, holds the connection open, and never writes a byte.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = std::thread::spawn(move || listener.accept().map(|(stream, _)| stream));
        // The path `connect` takes, with a timeout short enough to wait out.
        let mut client =
            ServeClient::connect_with_timeout(addr, Duration::from_millis(200)).unwrap();
        let started = Instant::now();
        let err = client.close_session(7).unwrap_err();
        assert!(
            matches!(&err, ServeError::Http(HttpError::Io(e))
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
            "{err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
        drop(holder.join().unwrap());
    }
}
