"""Known-answer oracle and wire client of the benchmark.

Every answer comes from the generator (gen.ml), never from a second
irdl-opt run:

- a valid module is echoed byte-for-byte, with nothing on stderr;
- a lit run exits 0 and prints nothing;
- a server request comes back with the generator's status; a seeded error
  is a verify_error at its known line, a print returns the document and an
  emit-bytecode returns the generator's own bytecode.

Each check returns a list of problems; an empty list means the answer
matched.
"""

import socket
import struct

REQUEST_MAGIC = b"IRQ1"
RESPONSE_MAGIC = b"IRS1"


def check_invocation(code, stdout, stderr, expected_stdout, expected_code=0):
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if stderr:
        problems.append(f"unexpected stderr: {stderr[:200]!r}")
    if stdout != expected_stdout:
        problems.append(
            f"stdout differs from the expected answer "
            f"({len(stdout)} bytes vs {len(expected_stdout)})"
        )
    return problems


def check_response(rs, rq):
    """[rs] is a decoded response (or None on a transport error), [rq] an
    entry of requests.json."""
    if rs is None:
        return ["transport error"]
    problems = []
    if rs["status"] != rq["status"]:
        problems.append(f"status {rs['status']}, expected {rq['status']}")
    if rq["status"] == "verify_error":
        where = f"{rq['file']}:{rq['error_line']}:"
        if where not in rs["diags"] or rq["error_msg"] not in rs["diags"]:
            problems.append(
                f"expected '{rq['error_msg']}' at {where}, got {rs['diags'][:200]!r}"
            )
        if rs["output"]:
            problems.append("output on a failed request")
    else:
        if rs["diags"]:
            problems.append(f"unexpected diagnostics: {rs['diags'][:200]!r}")
        if rs["output"] != (rq["expected"] if "expected" in rq else expected_output(rq)):
            problems.append(f"{rq['kind']} output differs from the expected answer")
    return problems


def expected_output(rq):
    if rq["kind"] == "print":
        return rq["payload"].encode("latin-1")
    if rq["kind"] == "emit-bytecode":
        return bytes.fromhex(rq["output_hex"])
    return b""


def prepared(rq):
    """[rq] with its wire frame and expected output precomputed, so that a
    client spends its time waiting on the server rather than encoding."""
    return dict(rq, frame=encode_request(request_header(rq), rq["payload"].encode("latin-1")),
                expected=expected_output(rq))


def encode_request(header, payload):
    h = "".join(f"{k}={v}\n" for k, v in header).encode()
    return REQUEST_MAGIC + struct.pack(">II", len(h), len(payload)) + h + payload


def _read_exact(sock, n):
    chunks = []
    while n > 0:
        b = sock.recv(min(n, 1 << 20))
        if not b:
            raise ConnectionError("connection closed mid-response")
        chunks.append(b)
        n -= len(b)
    return b"".join(chunks)


def roundtrip(path, frame, timeout=30.0):
    """One connect-send-receive round trip of an encoded request frame, as
    irdl-opt --connect makes it. Returns the decoded response, or None on a
    transport or framing error."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(path)
            s.sendall(frame)
            fixed = _read_exact(s, 16)
            n = response_length(fixed)
            if n is None:
                return None
            return decode_response(fixed + _read_exact(s, n - 16))
    except OSError:
        return None


def response_length(buf):
    """The length of the response frame [buf] starts with: None if it does
    not start like one, 0 while its 16-byte fixed header is incomplete."""
    if len(buf) < 16:
        return 0 if RESPONSE_MAGIC.startswith(buf[:4]) else None
    if buf[:4] != RESPONSE_MAGIC:
        return None
    hlen, dlen, olen = struct.unpack(">III", buf[4:16])
    return 16 + hlen + dlen + olen


def decode_response(frame):
    """A complete response frame as {"status", "diags", "output"}."""
    hlen, dlen, _ = struct.unpack(">III", frame[4:16])
    rest = frame[16:]
    fields = dict(
        line.split("=", 1)
        for line in rest[:hlen].decode("latin-1").split("\n")
        if "=" in line
    )
    return {
        "status": fields.get("status", ""),
        "diags": rest[hlen : hlen + dlen].decode("latin-1"),
        "output": rest[hlen + dlen :],
    }


def request_header(rq):
    return [("id", rq["id"]), ("kind", rq["kind"]), ("file", rq["file"])]
