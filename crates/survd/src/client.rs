//! A minimal HTTP/1.1 client for the daemon's loopback consumers: the
//! [`crate::verify`] loops, `perfbench serve` and the end-to-end tests.
//!
//! Same dependency policy as the server side — hand-rolled over
//! `std::net::TcpStream`, `Content-Length` framing only, keep-alive by
//! default. One request at a time per connection (closed loop), which
//! is exactly the shape [`crate::verify::load`] drives.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// A keep-alive connection to the daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`. `timeout` bounds each read so a wedged
    /// server surfaces as an error instead of a hang (`None` = block
    /// forever).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and reads the full response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: survd\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `POST /score` with a JSON body.
    pub fn score(&mut self, body: &str) -> io::Result<Response> {
        self.request("POST", "/score", body.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut raw = Vec::new();
        loop {
            let before = raw.len();
            match self.reader.read_until(b'\n', &mut raw) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                Ok(_) if raw.last() == Some(&b'\n') => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    raw.truncate(before);
                }
                Err(e) => return Err(e),
            }
        }
        while matches!(raw.last(), Some(b'\n' | b'\r')) {
            raw.pop();
        }
        String::from_utf8(raw)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response header"))
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let mut parts = status_line.splitn(3, ' ');
        let status = match (parts.next(), parts.next()) {
            (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
                .parse::<u16>()
                .map_err(|_| bad_data(format!("bad status line {status_line:?}")))?,
            _ => return Err(bad_data(format!("bad status line {status_line:?}"))),
        };

        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad_data(format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| bad_data(format!("bad content-length {v:?}")))?,
        };
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-shot server: accepts a single connection, reads until the
    /// blank line (+ content-length body), answers with `canned`.
    fn one_shot_server(canned: &'static str) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let request =
                crate::http::read_request(&mut reader, &crate::http::HttpLimits::default())
                    .expect("request");
            assert_eq!(request.method, "POST");
            let mut stream = stream;
            stream.write_all(canned.as_bytes()).expect("write");
        });
        addr
    }

    #[test]
    fn parses_status_headers_and_body() {
        let addr = one_shot_server(
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 5\r\n\r\nhello",
        );
        let mut client = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let response = client.request("POST", "/score", b"{}").expect("response");
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.text().unwrap(), "hello");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let addr = one_shot_server("HTTP/1.1 200 OK\r\n\r\n");
        let mut client = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let response = client.request("POST", "/x", b"").expect("response");
        assert_eq!(response.status, 200);
        assert!(response.body.is_empty());
    }

    #[test]
    fn garbage_status_line_is_invalid_data() {
        let addr = one_shot_server("SPDY nonsense\r\n\r\n");
        let mut client = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let err = client.request("POST", "/x", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
