//! A minimal HTTP/1.1 client for the `serve_rw` workload: one request
//! per connection, as the server closes every connection after its
//! response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A received response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// The `X-Jucq-Epoch` header: the snapshot that answered.
    pub epoch: Option<u64>,
    pub body: Vec<u8>,
}

/// `POST target` with `body`, reading the whole response.
pub fn post(addr: SocketAddr, target: &str, body: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let request = format!(
        "POST {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let epoch = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("x-jucq-epoch"))
        .and_then(|(_, v)| v.trim().parse().ok());
    Some(Response { status, epoch, body: raw[head_end + 4..].to_vec() })
}

/// The `rows` of a `/query` answer body, each cell as rendered by the
/// server (the term's display form).
pub fn rows(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let doc = jucq_obs::json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let rows = doc.get("rows").and_then(|r| r.as_arr()).ok_or("body has no rows")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or("row is not an array")?
                .iter()
                .map(|cell| cell.as_str().map(str::to_owned).ok_or("cell is not a string"))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(str::to_owned)
}

/// The server's own `planning_us` and `eval_us` from a `/query` answer
/// body.
pub fn timings(body: &[u8]) -> Result<(Duration, Duration), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let doc = jucq_obs::json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let micros = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_u64())
            .map(Duration::from_micros)
            .ok_or_else(|| format!("body has no {key}"))
    };
    Ok((micros("planning_us")?, micros("eval_us")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_epoch_and_rows() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Jucq-Epoch: 7\r\n\r\n{\"epoch\":7,\"planning_us\":12,\"eval_us\":345,\"rows\":[[\"<a>\",\"\\\"x\\\"\"]]}";
        let r = parse(raw).expect("parses");
        assert_eq!((r.status, r.epoch), (200, Some(7)));
        assert_eq!(rows(&r.body).unwrap(), vec![vec!["<a>".to_owned(), "\"x\"".to_owned()]]);
        let timings = timings(&r.body).unwrap();
        assert_eq!(timings, (Duration::from_micros(12), Duration::from_micros(345)));
        let refused =
            parse(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\nqueue full\n").unwrap();
        assert_eq!((refused.status, refused.epoch), (429, None));
    }
}
