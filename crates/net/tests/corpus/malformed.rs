// Malformed request heads, one per entry: an array expression, included
// by `tests/http_incremental.rs` and by the framing differential test in
// `src/http.rs`.
[
    b"NOT-HTTP-AT-ALL\r\n\r\n".as_slice(),
    b"GET / SPDY/9\r\n\r\n",
    b"POST /x HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
    b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
    b"GARBAGE\r\n\r\n",
    b"\r\nGET / HTTP/1.1\r\n\r\n",
]
