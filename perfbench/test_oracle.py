"""Self-test of the benchmark's known-answer oracle.

    python3 perfbench/test_oracle.py

Run from the root of the source tree. The first tests feed the oracle
answers in the exact format irdl-opt and the server produce. Once the
benchmark has built the program (python3 perfbench/run.py ...), the last
tests run the real irdl-opt on generated inputs and check that the right
answer passes and a deliberately corrupted expected answer fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402

MODULE = b'%0 = "test.source"() : () -> i32\n"arith.addi"(%0, %0) : (i32, i32) -> i32\n'

VERIFY_ERROR = {
    "id": "7", "kind": "verify", "file": "doc7.mlir", "payload": "...",
    "status": "verify_error", "error_line": 12,
    "error_msg": "'arith.constant' requires attribute 'value'", "output_hex": "",
}


def corrupt(data):
    """The same answer with one byte flipped."""
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


class OracleUnit(unittest.TestCase):
    def test_echo_matches(self):
        self.assertEqual(oracle.check_invocation(0, MODULE, b"", MODULE), [])

    def test_corrupted_expected_echo_fails(self):
        self.assertTrue(oracle.check_invocation(0, MODULE, b"", corrupt(MODULE)))

    def test_wrong_exit_code_or_stderr_fails(self):
        self.assertTrue(oracle.check_invocation(2, MODULE, b"", MODULE))
        self.assertTrue(oracle.check_invocation(0, MODULE, b"error", MODULE))

    def test_seeded_error_at_its_line(self):
        rs = {"status": "verify_error", "output": b"",
              "diags": "doc7.mlir:12:1-40: error: 'arith.constant' requires attribute 'value'\n"}
        self.assertEqual(oracle.check_response(rs, VERIFY_ERROR), [])
        moved = dict(VERIFY_ERROR, error_line=13)
        self.assertTrue(oracle.check_response(rs, moved))
        self.assertTrue(oracle.check_response(dict(rs, status="ok"), VERIFY_ERROR))

    def test_print_must_echo_document(self):
        rq = {"id": "1", "kind": "print", "file": "doc1.mlir",
              "payload": MODULE.decode(), "status": "ok", "output_hex": ""}
        rs = {"status": "ok", "diags": "", "output": MODULE}
        self.assertEqual(oracle.check_response(rs, rq), [])
        self.assertTrue(oracle.check_response(rs, dict(rq, payload=corrupt(MODULE).decode())))

    def test_transport_error_fails(self):
        self.assertTrue(oracle.check_response(None, VERIFY_ERROR))


@unittest.skipUnless(os.path.exists(run.OPT) and os.path.exists(run.TOOL),
                     "build the benchmark first: python3 perfbench/run.py ...")
class OracleEndToEnd(unittest.TestCase):
    """The real program's outputs on generated inputs."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(run.BENCH_DIR, "_work"), exist_ok=True)
        cls.work = tempfile.mkdtemp(dir=os.path.join(run.BENCH_DIR, "_work"))
        subprocess.run([run.TOOL, "gen", "server_roundtrip", "3", cls.work], check=True)
        with open(os.path.join(cls.work, "requests.json")) as f:
            cls.reqs = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work)

    def test_oneshot_echo_and_corrupted_answer(self):
        doc = next(r for r in self.reqs if r["status"] == "ok")
        path = os.path.join(self.work, "doc.mlir")
        expected = doc["payload"].encode("latin-1")
        with open(path, "wb") as f:
            f.write(expected)
        out, err = path + ".out", path + ".err"
        _, code, _ = run.spawn([run.OPT, "--corpus", "--generic", path], self.work, out, err)
        got = (code, run.read(out), run.read(err))
        self.assertEqual(oracle.check_invocation(*got, expected), [])
        self.assertTrue(oracle.check_invocation(*got, corrupt(expected)))

    def test_server_answers_and_corrupted_answers(self):
        counter = run.Run()
        server, _ = run.start_server(self.work, 1, counter)
        self.assertIsNotNone(server)
        try:
            path = os.path.relpath(os.path.join(self.work, run.SOCK), run.ROOT)
            picks = [next(r for r in self.reqs if r["status"] != "ok")] + [
                next(r for r in self.reqs if r["kind"] == k and r["status"] == "ok")
                for k in ("verify", "print", "emit-bytecode")]
            for rq in picks:
                rs = oracle.roundtrip(path, oracle.prepared(rq)["frame"])
                self.assertEqual(oracle.check_response(rs, rq), [], rq["kind"])
                if rq["status"] != "ok":
                    wrong = dict(rq, error_line=rq["error_line"] + 1)
                elif rq["kind"] == "verify":
                    wrong = dict(rq, status="verify_error", error_line=1)
                elif rq["kind"] == "print":
                    wrong = dict(rq, payload=corrupt(rq["payload"].encode("latin-1")).decode("latin-1"))
                else:
                    wrong = dict(rq, output_hex=corrupt(bytes.fromhex(rq["output_hex"])).hex())
                self.assertTrue(oracle.check_response(rs, wrong), rq["kind"])
        finally:
            run.stop_server(server)


if __name__ == "__main__":
    unittest.main()
