//! I/O loops for the line protocol: any `BufRead`/`Write` pair (stdin
//! in the CLI), or a thread-per-connection TCP listener.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::protocol::Server;

/// Serve the line protocol until EOF or a `QUIT` line. Blank lines are
/// ignored; every command gets exactly one response line, flushed
/// immediately (interactive clients see answers without buffering
/// delays).
pub fn serve_lines<R: BufRead, W: Write>(
    server: &Server,
    input: R,
    mut out: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("QUIT") {
            break;
        }
        // One write per reply: a reply split across writes can sit in
        // the kernel behind Nagle's algorithm until the peer ACKs.
        let mut reply = server.handle_line(line);
        reply.push('\n');
        out.write_all(reply.as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

/// Bind `addr` and serve every connection on its own thread, all over
/// one shared store. Returns only on bind/accept errors. Pass port 0 to
/// let the OS pick (the chosen address is printed to stderr).
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("fesia-serve: listening on {}", listener.local_addr()?);
    for conn in listener.incoming() {
        let stream = conn?;
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_connection(&server, stream));
    }
    Ok(())
}

/// Serve one accepted connection until the client quits or drops.
/// Turns Nagle's algorithm off first: a request/response protocol sends
/// each reply as soon as it is written, and with Nagle on a reply waits
/// for the peer's (delayed) ACK of the previous one.
fn serve_connection(server: &Server, stream: TcpStream) {
    let reader = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("fesia-serve: warning: dropping connection: {e}");
            return;
        }
    };
    // Client disconnects surface as I/O errors; just drop them.
    let _ = serve_lines(server, reader, stream);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServeConfig;
    use std::io::Cursor;

    #[test]
    fn a_scripted_session_produces_one_response_per_command() {
        let server = Server::new(ServeConfig::from_env().with_shards(2));
        let script = "ADD 0 3\nADD 1 3\n\n  \nCOUNT 0 1\nquit\nADD 0 4\n";
        let mut out = Vec::new();
        serve_lines(&server, Cursor::new(script), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "OK\nOK\n1\n");
    }

    #[test]
    fn tcp_clients_share_one_store() {
        use std::io::Write as _;

        let server = Arc::new(Server::new(ServeConfig::from_env().with_shards(2)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        let accept = std::thread::spawn(move || {
            // One connection is enough for the test; real serving uses
            // serve_tcp's unbounded loop around the same function.
            let (stream, _) = listener.accept().unwrap();
            let probe = stream.try_clone().unwrap();
            serve_connection(&accept_server, stream);
            probe
        });

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"ADD 5 77\nCARD 5\nQUIT\n").unwrap();
        let mut replies = BufReader::new(&conn).lines();
        assert_eq!(replies.next().unwrap().unwrap(), "OK");
        assert_eq!(replies.next().unwrap().unwrap(), "1");
        let probe = accept.join().unwrap();

        // The write landed in the shared store, and the served socket
        // had Nagle's algorithm off.
        assert_eq!(server.store().read(|v| v.card(5)), 1);
        assert!(probe.nodelay().unwrap());
    }
}
