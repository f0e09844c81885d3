//! A blocking wire client for shards and routers.
//!
//! One [`Client`] owns one connection and issues requests
//! synchronously ([`request`](Client::request)) or pipelined
//! ([`send`](Client::send) N frames, then [`recv`](Client::recv) N
//! replies — the server answers in order). The benchmark's
//! `shard_fleet` workload pipelines through the split form; the router
//! forwards `Step` frames as bytes through [`exchange`](Client::exchange)
//! and sends its other requests typed.

use crate::proto::{
    decode_response, encode_request, encode_step, kind, OpenRequest, Request, Response, WireError,
    WireStats,
};
use crate::wire::{read_frame_into, write_frame, Addr, Conn};
use basker_api::{SessionState, SolveQuality};
use std::io::{self, BufReader, BufWriter, Write};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (includes timeouts).
    Io(io::Error),
    /// The peer answered with an error response.
    Remote(WireError),
    /// The peer answered with something indecipherable or unexpected.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Remote(e) => write!(f, "remote error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A successful step as the client sees it.
#[derive(Debug, Clone)]
pub struct StepReply {
    /// What the remote session did (factor / refactor / re-pivot).
    pub state: SessionState,
    /// The packed solutions.
    pub x: Vec<f64>,
    /// Per-RHS quality for refined steps.
    pub quality: Vec<SolveQuality>,
}

/// One connection to a shard or router.
pub struct Client {
    r: BufReader<Conn>,
    w: BufWriter<Conn>,
    next_req: u64,
    /// The last reply's payload; reused so a reply costs no allocation.
    frame: Vec<u8>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: &Addr) -> io::Result<Client> {
        let conn = Conn::connect(addr)?;
        let rd = conn.try_clone()?;
        Ok(Client {
            r: BufReader::new(rd),
            w: BufWriter::new(conn),
            next_req: 1,
            frame: Vec::new(),
        })
    }

    /// Bounds every blocking read; `None` blocks forever.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.r.get_ref().set_read_timeout(t)
    }

    /// Sends one request, returning its `req_id`. Does not wait.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let (kind, payload) = encode_request(req);
        self.send_frame(kind, &payload)
    }

    fn send_frame(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        let id = self.next_req;
        self.next_req += 1;
        write_frame(&mut self.w, kind, id, payload)?;
        self.w.flush()?;
        Ok(id)
    }

    /// Receives the next reply as `(req_id, response)`.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let (kind, req_id) = read_frame_into(&mut self.r, &mut self.frame)?;
        let resp = decode_response(kind, &self.frame).map_err(ClientError::Protocol)?;
        Ok((req_id, resp))
    }

    /// Sends a request and waits for its reply, checking the id echo.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        let (got, resp) = self.recv()?;
        echoed(id, got)?;
        Ok(resp)
    }

    /// Sends one frame of `kind` carrying `payload` as it stands and
    /// waits for the reply, whose payload lands in `reply` (resized to
    /// fit) undecoded; returns the reply's kind. This is how the router
    /// forwards a `Step`.
    pub fn exchange(
        &mut self,
        kind: u8,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Result<u8, ClientError> {
        let id = self.send_frame(kind, payload)?;
        let (reply_kind, got) = read_frame_into(&mut self.r, reply)?;
        echoed(id, got)?;
        Ok(reply_kind)
    }

    /// Pings the peer, returning its epoch.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { epoch } => Ok(epoch),
            Response::Err(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Opens a stream, returning `(stream_id, pattern_hash)`.
    pub fn open_stream(&mut self, open: &OpenRequest) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::Open(open.clone()))? {
            Response::Opened {
                stream,
                pattern_hash,
            } => Ok((stream, pattern_hash)),
            Response::Err(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Runs one step synchronously.
    pub fn step(
        &mut self,
        stream: u64,
        refined: bool,
        values: &[f64],
        rhs: &[f64],
    ) -> Result<StepReply, ClientError> {
        let id = self.send_frame(kind::STEP, &encode_step(stream, refined, values, rhs))?;
        let (got, resp) = self.recv()?;
        echoed(id, got)?;
        step_reply(resp)
    }

    /// Closes a stream.
    pub fn close_stream(&mut self, stream: u64) -> Result<(), ClientError> {
        match self.request(&Request::Close { stream })? {
            Response::Closed => Ok(()),
            Response::Err(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Fetches serving stats.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Err(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the peer to shut down and waits for the ack.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            Response::Err(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

/// Interprets a response to a step request.
pub fn step_reply(resp: Response) -> Result<StepReply, ClientError> {
    match resp {
        Response::Step { state, x, quality } => Ok(StepReply { state, x, quality }),
        Response::Err(e) => Err(ClientError::Remote(e)),
        other => Err(unexpected("Step", &other)),
    }
}

/// Checks that a synchronous request's reply echoes its id.
fn echoed(id: u64, got: u64) -> Result<(), ClientError> {
    if got == id {
        Ok(())
    } else {
        Err(ClientError::Protocol(format!(
            "response id {got} for request {id} (pipelining misuse)"
        )))
    }
}

fn unexpected(want: &str, got: &Response) -> ClientError {
    let name = match got {
        Response::Pong { .. } => "Pong",
        Response::Opened { .. } => "Opened",
        Response::Step { .. } => "Step",
        Response::Closed => "Closed",
        Response::Stats(_) => "Stats",
        Response::ShutdownAck => "ShutdownAck",
        Response::Err(_) => "Err",
    };
    ClientError::Protocol(format!("expected {want} response, got {name}"))
}
