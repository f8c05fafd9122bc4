//! The load generator's own side of the wire protocol: 4-byte
//! big-endian length prefix + JSON payload, with the frame reader the
//! closed and open loops share.

use gmaa_serve::net::{WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES};
use gmaa_serve::Request;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream between frames.
    Closed,
    /// The stream ended inside a frame.
    Truncated {
        have: usize,
    },
    /// The length prefix exceeds the cap; nothing was allocated for it.
    Oversized {
        len: u64,
        max: usize,
    },
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "server closed the connection"),
            FrameError::Truncated { have } => {
                write!(f, "stream ended inside a frame ({have} bytes buffered)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

/// Bytes received but not yet framed.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// The next complete frame's payload, if one is buffered. The prefix
    /// is checked against `max` before the payload is waited for.
    pub fn pop(&mut self, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(prefix) = self.buf.get(..4) else {
            return Ok(None);
        };
        let len = u64::from(u32::from_be_bytes([
            prefix[0], prefix[1], prefix[2], prefix[3],
        ]));
        let len = match usize::try_from(len) {
            Ok(n) if n <= max => n,
            _ => return Err(FrameError::Oversized { len, max }),
        };
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// The stream ended: fine between frames, an error inside one.
    pub fn at_eof(&self) -> FrameError {
        if self.buf.is_empty() {
            FrameError::Closed
        } else {
            FrameError::Truncated {
                have: self.buf.len(),
            }
        }
    }
}

/// Block until one whole frame is read from `r`.
pub fn read_frame(r: &mut impl Read, fb: &mut FrameBuf, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(payload) = fb.pop(max)? {
            return Ok(payload);
        }
        match r.read(&mut chunk) {
            Ok(0) => return Err(fb.at_eof()),
            Ok(n) => fb.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Prefix + payload in one buffer, so a frame is one `write_all`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("request frames are far below 4 GiB");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

pub fn encode_request(request: &Request) -> Vec<u8> {
    let wire = WireRequest::Api {
        request: Box::new(request.clone()),
        deadline_ms: None,
    };
    serde_json::to_string(&wire)
        .expect("requests always encode")
        .into_bytes()
}

pub fn decode_response(payload: &[u8]) -> Result<WireResponse, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("undecodable reply: {e}"))
}

/// One blocking connection to the server.
pub struct Conn {
    pub stream: TcpStream,
    pub fb: FrameBuf,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            fb: FrameBuf::default(),
        })
    }

    pub fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        self.stream
            .write_all(&frame(payload))
            .map_err(FrameError::Io)
    }

    pub fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        read_frame(&mut self.stream, &mut self.fb, DEFAULT_MAX_FRAME_BYTES)
    }

    /// Send a request and wait for the raw reply payload.
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
        self.send(payload)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_across_split_reads() {
        let mut bytes = frame(b"hello");
        bytes.extend(frame(b""));
        let mut fb = FrameBuf::default();
        for b in &bytes[..6] {
            assert!(fb.pop(64).unwrap().is_none());
            fb.push(std::slice::from_ref(b));
        }
        fb.push(&bytes[6..]);
        assert_eq!(fb.pop(64).unwrap().unwrap(), b"hello");
        assert_eq!(fb.pop(64).unwrap().unwrap(), b"");
        assert!(fb.pop(64).unwrap().is_none());
        assert!(matches!(fb.at_eof(), FrameError::Closed));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_close() {
        let mut bytes = frame(b"hello");
        bytes.truncate(bytes.len() - 2);
        let mut r = io::Cursor::new(bytes);
        let err = read_frame(&mut r, &mut FrameBuf::default(), 64).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { have: 7 }), "{err}");
        // Torn inside the prefix itself.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        let err = read_frame(&mut r, &mut FrameBuf::default(), 64).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { have: 2 }), "{err}");
        // A clean close between frames is its own case.
        let mut r = io::Cursor::new(Vec::new());
        let err = read_frame(&mut r, &mut FrameBuf::default(), 64).unwrap_err();
        assert!(matches!(err, FrameError::Closed));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_payload_arrives() {
        let mut r = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        match read_frame(&mut r, &mut FrameBuf::default(), 1024) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Exactly at the cap is accepted; one past it is not.
        let mut r = io::Cursor::new(frame(&[7u8; 16]));
        assert_eq!(
            read_frame(&mut r, &mut FrameBuf::default(), 16)
                .unwrap()
                .len(),
            16
        );
        let mut r = io::Cursor::new(frame(&[7u8; 17]));
        assert!(matches!(
            read_frame(&mut r, &mut FrameBuf::default(), 16),
            Err(FrameError::Oversized { len: 17, max: 16 })
        ));
    }
}
