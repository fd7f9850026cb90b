(* The resident service: wire framing, request handling, budgets, fault
   injection, serve-loop semantics, and the soak gate.

   The soak test drives a mixed stream of well-formed, malformed,
   over-budget and fault-poisoned requests (IRDL_SOAK_N of them, default
   10_000) through [Server.serve_fd] over real file descriptors and checks
   that every single request is answered, in order, with the structured
   status its class predicts — no crash, no hang, no dropped response. *)

open Util
module Limits = Irdl_support.Limits
module Failpoints = Irdl_support.Failpoints
module Diag = Irdl_support.Diag
module Context = Irdl_ir.Context
module Wire = Irdl_server.Wire
module Server = Irdl_server.Server

(* ---------------------------------------------------------------- *)
(* Wire framing                                                      *)
(* ---------------------------------------------------------------- *)

let wire_header_roundtrip () =
  let kvs = [ ("id", "42"); ("kind", "verify"); ("file", "a b=c.mlir") ] in
  let decoded = Wire.decode_header (Wire.encode_header kvs) in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (Some v) (Wire.header_get decoded k))
    kvs;
  (* Later duplicates win; malformed lines are dropped. *)
  let d = Wire.decode_header "id=1\nnonsense\nid=2\n" in
  Alcotest.(check (option string)) "last id wins" (Some "2")
    (Wire.header_get d "id");
  Alcotest.(check int) "malformed line dropped" 2 (List.length d);
  (match Wire.encode_header [ ("k", "v\n") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "newline in value must be rejected")

let feed_slowly r s =
  String.iter (fun c -> Wire.feed r (String.make 1 c)) s

let wire_reader_reassembles () =
  let r = Wire.reader () in
  let f1 = Wire.encode_request ~header:[ ("id", "1") ] ~payload:"aaa" in
  let f2 = Wire.encode_request ~header:[ ("id", "2") ] ~payload:"" in
  (* Byte-at-a-time arrival, two frames back to back. *)
  feed_slowly r (f1 ^ f2);
  (match Wire.poll r with
  | Some (Wire.Frame { header; payload; oversized }) ->
      Alcotest.(check (option string)) "id 1" (Some "1")
        (Wire.header_get header "id");
      Alcotest.(check string) "payload" "aaa" payload;
      Alcotest.(check bool) "not oversized" false oversized
  | _ -> Alcotest.fail "expected frame 1");
  (match Wire.poll r with
  | Some (Wire.Frame { header; _ }) ->
      Alcotest.(check (option string)) "id 2" (Some "2")
        (Wire.header_get header "id")
  | _ -> Alcotest.fail "expected frame 2");
  Alcotest.(check bool) "drained" true (Wire.poll r = None)

let wire_reader_oversized_discard () =
  let cap = 64 in
  let r = Wire.reader ~max_payload:cap () in
  let big = String.make 100_000 'x' in
  let frame = Wire.encode_request ~header:[ ("id", "big") ] ~payload:big in
  (* Feed in 1 KiB chunks; the buffer must stay bounded by one chunk plus
     the frame prefix — the declared 100 KB payload is never accumulated. *)
  let chunk = 1024 in
  let i = ref 0 in
  while !i < String.length frame do
    let n = min chunk (String.length frame - !i) in
    Wire.feed r (String.sub frame !i n);
    Alcotest.(check bool)
      (Printf.sprintf "buffer bounded at offset %d" !i)
      true
      (Wire.buffered r <= chunk + 16);
    i := !i + n
  done;
  (match Wire.poll r with
  | Some (Wire.Frame { header; payload; oversized }) ->
      Alcotest.(check bool) "flagged oversized" true oversized;
      Alcotest.(check string) "payload dropped" "" payload;
      Alcotest.(check (option string)) "header still decoded" (Some "big")
        (Wire.header_get header "id")
  | _ -> Alcotest.fail "expected an oversized frame");
  (* The reader resynchronized: a normal frame after the discard parses. *)
  Wire.feed r (Wire.encode_request ~header:[ ("id", "after") ] ~payload:"ok");
  match Wire.poll r with
  | Some (Wire.Frame { payload = "ok"; oversized = false; _ }) -> ()
  | _ -> Alcotest.fail "expected the post-discard frame"

let wire_reader_corrupt_is_sticky () =
  let r = Wire.reader () in
  Wire.feed r "GARBAGE_that_is_long_enough";
  (match Wire.poll r with
  | Some (Wire.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected corrupt");
  Wire.feed r (Wire.encode_request ~header:[] ~payload:"");
  match Wire.poll r with
  | Some (Wire.Corrupt _) -> ()
  | _ -> Alcotest.fail "corrupt must be sticky"

(* Every event of a reader fed [s] in pieces of the given sizes (the rest
   in one), polled after each piece, up to and including a [Corrupt]. *)
let events_of_pieces ~max_payload s sizes =
  let r = Wire.reader ~max_payload () in
  let b = Bytes.of_string s in
  let events = ref [] and broken = ref false in
  let rec drain () =
    if not !broken then
      match Wire.poll r with
      | None -> ()
      | Some e ->
          events := e :: !events;
          (match e with Wire.Corrupt _ -> broken := true | _ -> ());
          drain ()
  in
  let rec go off = function
    | _ when off >= Bytes.length b -> ()
    | n :: rest ->
        let n = min n (Bytes.length b - off) in
        Wire.feed_bytes r b ~off ~len:n;
        drain ();
        go (off + n) rest
    | [] -> go off [ Bytes.length b - off ]
  in
  go 0 sizes;
  drain ();
  List.rev !events

(* Frames (some past the 64-byte discard threshold, some with an empty
   payload), optionally followed by garbage, fed in random pieces: 1-byte
   pieces and pieces that split the 12-byte prefix included. *)
let wire_pieces_prop =
  let open QCheck2.Gen in
  let frame =
    map2
      (fun id payload -> Wire.encode_request ~header:[ ("id", id) ] ~payload)
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 6))
      (string_size (oneof [ int_range 0 16; int_range 0 200 ]))
  in
  let stream =
    map2
      (fun frames tail -> String.concat "" frames ^ tail)
      (list_size (int_range 0 8) frame)
      (oneofl [ ""; "junk that is no frame" ])
  in
  let sizes = list (oneof [ return 1; int_range 1 13; int_range 1 700 ]) in
  QCheck2.Test.make ~name:"wire: any piece sizes give the events of one feed"
    ~count:300 (pair stream sizes) (fun (s, sizes) ->
      events_of_pieces ~max_payload:64 s sizes
      = events_of_pieces ~max_payload:64 s [])

let wire_reader_linear_alloc () =
  let size = 16 * 1024 * 1024 in
  let frame =
    Wire.encode_request ~header:[ ("id", "big") ]
      ~payload:(String.make size 'x')
  in
  let piece = Bytes.create 65536 in
  let r = Wire.reader () in
  let before = Gc.allocated_bytes () in
  let off = ref 0 in
  while !off < String.length frame do
    let n = min (Bytes.length piece) (String.length frame - !off) in
    Bytes.blit_string frame !off piece 0 n;
    Wire.feed_bytes r piece ~off:0 ~len:n;
    off := !off + n
  done;
  let allocated = Gc.allocated_bytes () -. before in
  (match Wire.poll r with
  | Some (Wire.Frame { payload; _ }) ->
      Alcotest.(check int) "payload received" size (String.length payload)
  | _ -> Alcotest.fail "expected the frame");
  if allocated > 4. *. float_of_int size then
    Alcotest.failf "receiving a %d-byte frame allocated %.0f bytes" size
      allocated

(* ---------------------------------------------------------------- *)
(* Request decoding                                                  *)
(* ---------------------------------------------------------------- *)

let parse_request_cases () =
  (match
     Server.parse_request
       ~header:
         [ ("id", "7"); ("kind", "verify"); ("file", "x.mlir");
           ("max-ops", "10") ]
       ~payload:"p"
   with
  | Ok rq ->
      Alcotest.(check string) "id" "7" rq.Server.rq_id;
      Alcotest.(check bool) "kind" true (rq.Server.rq_kind = Server.Verify);
      Alcotest.(check string) "file" "x.mlir" rq.Server.rq_file;
      Alcotest.(check int) "max-ops" 10 rq.Server.rq_limits.Limits.max_ops
  | Error _ -> Alcotest.fail "well-formed request rejected");
  let expect_invalid what header =
    match Server.parse_request ~header ~payload:"" with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error rs ->
        Alcotest.(check bool) what true
          (rs.Server.rs_status = Server.Invalid_request)
  in
  expect_invalid "missing kind" [ ("id", "1") ];
  expect_invalid "unknown kind" [ ("kind", "frobnicate") ];
  expect_invalid "bad integer" [ ("kind", "parse"); ("max-ops", "many") ]

(* ---------------------------------------------------------------- *)
(* Handling and classification                                       *)
(* ---------------------------------------------------------------- *)

let frozen_cmath_ctx () =
  let ctx = cmath_ctx () in
  Context.freeze ctx;
  ctx

let req ?(id = "1") ?(file = "req.mlir") ?(limits = Limits.unlimited) kind
    payload =
  {
    Server.rq_id = id;
    rq_kind = kind;
    rq_file = file;
    rq_limits = limits;
    rq_payload = payload;
  }

let good_ir = {|%c = "t.cast"() : () -> (!cmath.complex<f32>)
%n = "cmath.norm"(%c) : (!cmath.complex<f32>) -> (f32)
|}

let bad_parse_ir = "%x = \"t.oops\"( : () -> (i32)\n"

let bad_verify_ir = {|%c = "t.cast"() : () -> (!cmath.complex<f32>)
%n = "cmath.norm"(%c) : (!cmath.complex<f32>) -> (i32)
|}

let check_status what expected rs =
  Alcotest.(check string)
    what
    (Server.status_to_string expected)
    (Server.status_to_string rs.Server.rs_status)

let handle_classification () =
  let ctx = frozen_cmath_ctx () in
  let cfg = Server.default_config in
  check_status "ping" Server.Ok_ (Server.handle ctx cfg (req Server.Ping ""));
  let stats = Server.handle ctx cfg (req Server.Stats "") in
  check_status "stats" Server.Ok_ stats;
  Alcotest.(check bool) "stats lists cmath" true
    (String.length stats.Server.rs_output > 0);
  check_status "parse ok" Server.Ok_
    (Server.handle ctx cfg (req Server.Parse good_ir));
  let printed = Server.handle ctx cfg (req Server.Print good_ir) in
  check_status "print ok" Server.Ok_ printed;
  Alcotest.(check bool) "print has output" true
    (String.length printed.Server.rs_output > 0);
  let pe = Server.handle ctx cfg (req Server.Verify bad_parse_ir) in
  check_status "parse error" Server.Parse_error pe;
  Alcotest.(check bool) "parse error diags rendered" true
    (String.length pe.Server.rs_diags > 0);
  Alcotest.(check bool) "error counted" true (pe.Server.rs_errors > 0);
  let ve = Server.handle ctx cfg (req Server.Verify bad_verify_ir) in
  check_status "verify error" Server.Verify_error ve;
  (* A parse-only request does not verify: the verify-broken module is ok. *)
  check_status "parse skips verification" Server.Ok_
    (Server.handle ctx cfg (req Server.Parse bad_verify_ir))

(* A print request whose output is past the text sink's spill threshold:
   answered in full when clean; when its last op does not verify, it has
   no output and leaves no file descriptor open. *)
let handle_large_print () =
  let ctx = frozen_cmath_ctx () in
  let cfg = Server.default_config in
  let large =
    String.concat ""
      (List.init 12_000 (fun i ->
           Printf.sprintf "%%%d = \"test.source\"() : () -> (i32)\n" i))
  in
  let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
  let fds = fd_count () in
  let printed = Server.handle ctx cfg (req Server.Print large) in
  check_status "large print ok" Server.Ok_ printed;
  Alcotest.(check string) "large print output" large printed.Server.rs_output;
  for _ = 1 to 50 do
    let rs = Server.handle ctx cfg (req Server.Print (large ^ bad_verify_ir)) in
    check_status "large print fails" Server.Verify_error rs;
    Alcotest.(check string) "no output" "" rs.Server.rs_output
  done;
  Alcotest.(check int) "no file left open" fds (fd_count ())

let handle_budgets () =
  let ctx = frozen_cmath_ctx () in
  let cfg = Server.default_config in
  let tight = Limits.create ~max_ops:1 () in
  let rs = Server.handle ctx cfg (req ~limits:tight Server.Verify good_ir) in
  check_status "op budget" Server.Resource_exhausted rs;
  Alcotest.(check bool) "budget diag rendered" true
    (String.length rs.Server.rs_diags > 0);
  (* The server ceiling applies even when the request asks for more. *)
  let ceiling = { cfg with Server.limits = Limits.create ~max_ops:1 () } in
  let loose = Limits.create ~max_ops:1000 () in
  check_status "server ceiling wins" Server.Resource_exhausted
    (Server.handle ctx ceiling (req ~limits:loose Server.Verify good_ir));
  (* An already-expired deadline surfaces as deadline_exceeded, and
     outranks the parse error the abort interrupts. *)
  let expired = { Limits.unlimited with Limits.deadline_ns = 1L } in
  check_status "expired deadline" Server.Deadline_exceeded
    (Server.handle ctx cfg (req ~limits:expired Server.Verify bad_parse_ir));
  (* Payload cap, request-side. *)
  let small = Limits.create ~max_payload_bytes:8 () in
  check_status "payload cap" Server.Resource_exhausted
    (Server.handle ctx cfg (req ~limits:small Server.Verify good_ir))

let handle_injected_isolation () =
  let ctx = frozen_cmath_ctx () in
  let cfg = Server.default_config in
  Alcotest.(check bool) "configure" true
    (Result.is_ok (Failpoints.configure "pool.task:2"));
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  (* Every 2nd request is poisoned; its neighbours are untouched. *)
  let statuses =
    List.init 6 (fun i ->
        (Server.handle ctx cfg (req ~id:(string_of_int i) Server.Verify good_ir))
          .Server.rs_status)
  in
  let injected =
    List.length (List.filter (fun s -> s = Server.Internal_error) statuses)
  in
  let ok = List.length (List.filter (fun s -> s = Server.Ok_) statuses) in
  Alcotest.(check int) "3 of 6 poisoned" 3 injected;
  Alcotest.(check int) "3 of 6 clean" 3 ok;
  Alcotest.(check int) "injections counted" 3
    (Failpoints.injected_count "pool.task")

(* ---------------------------------------------------------------- *)
(* Serve loop over real file descriptors                             *)
(* ---------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "irdl_server_test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> f path

let encode_req ~id ~kind ?(extra = []) payload =
  Wire.encode_request
    ~header:([ ("id", id); ("kind", kind); ("file", id ^ ".mlir") ] @ extra)
    ~payload

(* Split a byte string of concatenated response frames. *)
let decode_responses s =
  let u32 off =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]
  in
  let rec go off acc =
    if off = String.length s then List.rev acc
    else begin
      Alcotest.(check string)
        "response magic" Wire.response_magic
        (String.sub s off 4);
      let hlen = u32 (off + 4) and dlen = u32 (off + 8) and olen = u32 (off + 12) in
      let total = 16 + hlen + dlen + olen in
      match Wire.decode_response (String.sub s off total) with
      | Error e -> Alcotest.failf "undecodable response: %s" e
      | Ok (header, diags, output) -> (
          match Server.response_of_wire ~header ~diags ~output with
          | Error e -> Alcotest.failf "bad response: %s" e
          | Ok rs -> go (off + total) (rs :: acc))
    end
  in
  go 0 []

(* Run [serve_fd] with [requests] pre-written to a file (always readable,
   EOF at the end — every request must be answered) and return the decoded
   responses. *)
let serve_over_files ?config ctx requests =
  with_temp_file @@ fun in_path ->
  with_temp_file @@ fun out_path ->
  let oc = open_out_bin in_path in
  List.iter (output_string oc) requests;
  close_out oc;
  let in_fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let answered =
    Fun.protect
      ~finally:(fun () ->
        Unix.close in_fd;
        Unix.close out_fd)
      (fun () -> Server.serve_fd ?config ctx ~in_fd ~out_fd ())
  in
  let ic = open_in_bin out_path in
  let out =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (answered, decode_responses out)

let serve_fd_end_to_end () =
  Server.reset_shutdown ();
  let ctx = cmath_ctx () in
  let requests =
    [
      encode_req ~id:"1" ~kind:"ping" "";
      encode_req ~id:"2" ~kind:"print" good_ir;
      encode_req ~id:"3" ~kind:"verify" bad_verify_ir;
      encode_req ~id:"4" ~kind:"verify" bad_parse_ir;
      encode_req ~id:"5" ~kind:"verify" ~extra:[ ("max-ops", "1") ] good_ir;
      encode_req ~id:"6" ~kind:"bogus-kind" "";
      encode_req ~id:"7" ~kind:"stats" "";
    ]
  in
  let answered, responses = serve_over_files ctx requests in
  Alcotest.(check int) "all answered" 7 answered;
  Alcotest.(check int) "all written" 7 (List.length responses);
  Alcotest.(check (list string))
    "responses in arrival order"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7" ]
    (List.map (fun r -> r.Server.rs_id) responses);
  let status id =
    (List.find (fun r -> r.Server.rs_id = id) responses).Server.rs_status
  in
  Alcotest.(check bool) "ping ok" true (status "1" = Server.Ok_);
  Alcotest.(check bool) "print ok" true (status "2" = Server.Ok_);
  Alcotest.(check bool) "verify error" true (status "3" = Server.Verify_error);
  Alcotest.(check bool) "parse error" true (status "4" = Server.Parse_error);
  Alcotest.(check bool) "budget" true (status "5" = Server.Resource_exhausted);
  Alcotest.(check bool) "invalid" true (status "6" = Server.Invalid_request);
  Alcotest.(check bool) "stats ok" true (status "7" = Server.Ok_)

let serve_fd_oversized_and_corrupt () =
  Server.reset_shutdown ();
  let ctx = cmath_ctx () in
  let config =
    {
      Server.default_config with
      Server.limits = Limits.create ~max_payload_bytes:64 ();
    }
  in
  let big = String.make 10_000 'z' in
  let answered, responses =
    serve_over_files ~config ctx
      [
        encode_req ~id:"1" ~kind:"verify" big;
        encode_req ~id:"2" ~kind:"ping" "";
        "NOT A FRAME AT ALL";
      ]
  in
  Alcotest.(check int) "both requests + corrupt notice" 3 answered;
  match responses with
  | [ r1; r2; r3 ] ->
      Alcotest.(check string) "oversized answered by id" "1" r1.Server.rs_id;
      Alcotest.(check bool) "oversized is resource_exhausted" true
        (r1.Server.rs_status = Server.Resource_exhausted);
      Alcotest.(check bool) "later request unaffected" true
        (r2.Server.rs_status = Server.Ok_);
      Alcotest.(check bool) "corrupt tail answered invalid_request" true
        (r3.Server.rs_status = Server.Invalid_request)
  | _ -> Alcotest.fail "expected exactly 3 responses"

(* A frame is decoded only once the frames before it are answered, so
   time spent behind a slow request does not count against the next
   one's deadline. The input is a file, which stays readable to its end:
   nothing waits for the client to pause. *)
let serve_fd_answers_before_decoding_more () =
  Server.reset_shutdown ();
  let ctx = cmath_ctx () in
  let big = Buffer.create (4 * 1024 * 1024) in
  for i = 0 to 29_999 do
    Printf.bprintf big
      "%%c%d = \"t.cast\"() : () -> (!cmath.complex<f32>)\n\
       %%n%d = \"cmath.norm\"(%%c%d) : (!cmath.complex<f32>) -> (f32)\n"
      i i i
  done;
  let slow = Buffer.contents big in
  (* A deadline a quarter of the slow request's own time. *)
  let t0 = Unix.gettimeofday () in
  check_status "slow request alone" Server.Ok_
    (Server.handle ctx Server.default_config (req Server.Verify slow));
  let deadline_ms =
    max 1 (int_of_float ((Unix.gettimeofday () -. t0) *. 250.))
  in
  let answered, responses =
    serve_over_files ctx
      [
        encode_req ~id:"slow" ~kind:"verify" slow;
        encode_req ~id:"next" ~kind:"verify"
          ~extra:[ ("deadline-ms", string_of_int deadline_ms) ]
          good_ir;
      ]
  in
  Alcotest.(check int) "both answered" 2 answered;
  match responses with
  | [ r1; r2 ] ->
      check_status "slow request" Server.Ok_ r1;
      check_status "next request within its deadline" Server.Ok_ r2
  | _ -> Alcotest.fail "expected exactly 2 responses"

let serve_fd_drains_on_shutdown_request () =
  Server.reset_shutdown ();
  Fun.protect ~finally:Server.reset_shutdown @@ fun () ->
  let ctx = cmath_ctx () in
  let requests =
    [
      encode_req ~id:"1" ~kind:"verify" good_ir;
      encode_req ~id:"2" ~kind:"shutdown" "";
      encode_req ~id:"3" ~kind:"verify" good_ir;
    ]
  in
  let answered, responses = serve_over_files ctx requests in
  (* Everything accepted before the loop observed the shutdown — here the
     whole burst, it arrived in one read — is still answered. *)
  Alcotest.(check int) "accepted requests drained" 3 answered;
  Alcotest.(check bool) "shutdown answered ok" true
    ((List.nth responses 1).Server.rs_status = Server.Ok_);
  Alcotest.(check bool) "flag raised" true (Server.shutdown_requested ())

(* ---------------------------------------------------------------- *)
(* Socket listener + client                                          *)
(* ---------------------------------------------------------------- *)

let socket_path () =
  let path = Filename.temp_file "irdl_server" ".sock" in
  Sys.remove path;
  path

(* Wait for the listener to bind. *)
let rec await_socket ?(n = 500) path =
  if n = 0 then Alcotest.fail "socket never appeared";
  if not (Sys.file_exists path) then begin
    Unix.sleepf 0.01;
    await_socket ~n:(n - 1) path
  end

(* Run [f path] against [serve_unix] with two serve loops on another
   domain, then shut the server down: [f]'s result and the number of
   requests the server answered. *)
let with_listener ctx f =
  Server.reset_shutdown ();
  let path = socket_path () in
  let config = { Server.default_config with Server.domains = 2 } in
  let srv = Domain.spawn (fun () -> Server.serve_unix ~config ctx ~path ()) in
  let answered () =
    Server.request_shutdown ();
    let n = Domain.join srv in
    Server.reset_shutdown ();
    n
  in
  match
    await_socket path;
    f path
  with
  | v -> (v, answered ())
  | exception e ->
      ignore (answered ());
      raise e

let serve_unix_roundtrip () =
  Server.reset_shutdown ();
  Fun.protect ~finally:Server.reset_shutdown @@ fun () ->
  let ctx = cmath_ctx () in
  let path = socket_path () in
  let config = { Server.default_config with Server.domains = 2 } in
  let srv = Domain.spawn (fun () -> Server.serve_unix ~config ctx ~path ()) in
  await_socket path;
  (match Server.roundtrip ~path ~kind:Server.Ping "" with
  | Ok rs -> Alcotest.(check bool) "ping ok" true (rs.Server.rs_status = Server.Ok_)
  | Error e -> Alcotest.failf "ping failed: %s" e);
  (match Server.roundtrip ~path ~kind:Server.Print ~file:"rt.mlir" good_ir with
  | Ok rs ->
      Alcotest.(check bool) "print ok" true (rs.Server.rs_status = Server.Ok_);
      Alcotest.(check bool) "print output" true
        (String.length rs.Server.rs_output > 0)
  | Error e -> Alcotest.failf "print failed: %s" e);
  (match
     Server.roundtrip ~path ~kind:Server.Verify ~file:"rt.mlir" bad_verify_ir
   with
  | Ok rs ->
      Alcotest.(check bool) "verify error over socket" true
        (rs.Server.rs_status = Server.Verify_error);
      Alcotest.(check bool) "diagnostics over socket" true
        (String.length rs.Server.rs_diags > 0)
  | Error e -> Alcotest.failf "verify failed: %s" e);
  (match Server.roundtrip ~path ~kind:Server.Shutdown "" with
  | Ok rs ->
      Alcotest.(check bool) "shutdown ok" true (rs.Server.rs_status = Server.Ok_)
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  let answered = Domain.join srv in
  Alcotest.(check bool) "server answered everything" true (answered >= 4);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_to_eof fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

(* A long request occupies only the loop that accepted its connection:
   the other loop answers a ping meanwhile. *)
let serve_unix_no_head_of_line () =
  let ctx = cmath_ctx () in
  let big = Buffer.create (15 * 1024 * 1024) in
  for i = 0 to 124_999 do
    Printf.bprintf big
      "%%c%d = \"t.cast\"() : () -> (!cmath.complex<f32>)\n\
       %%n%d = \"cmath.norm\"(%%c%d) : (!cmath.complex<f32>) -> (f32)\n"
      i i i
  done;
  let slow = encode_req ~id:"slow" ~kind:"verify" (Buffer.contents big) in
  let slow_rs, answered =
    with_listener ctx @@ fun path ->
    let a = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
    Unix.connect a (Unix.ADDR_UNIX path);
    write_all a slow;
    Unix.shutdown a Unix.SHUTDOWN_SEND;
    (* Give A's loop the moment it needs to read the frame's tail. *)
    Unix.sleepf 0.05;
    (match Server.roundtrip ~path ~kind:Server.Ping "" with
    | Ok rs -> check_status "ping" Server.Ok_ rs
    | Error e -> Alcotest.failf "ping failed: %s" e);
    let pending =
      match Unix.select [ a ] [] [] 0.0 with [], _, _ -> true | _ -> false
    in
    Alcotest.(check bool) "ping answered before the slow response" true
      pending;
    decode_responses (read_to_eof a)
  in
  (match slow_rs with
  | [ rs ] -> check_status "slow request" Server.Ok_ rs
  | _ -> Alcotest.fail "expected one response to the slow request");
  Alcotest.(check int) "both answered" 2 answered

(* ---------------------------------------------------------------- *)
(* Soak                                                              *)
(* ---------------------------------------------------------------- *)

let soak_n () =
  match Sys.getenv_opt "IRDL_SOAK_N" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
  | None -> 10_000

(* Request class by index; every class has a deterministic expected
   status, except that any module-processing request may additionally be
   poisoned by the armed failpoint (every 97th pool task) — in which case
   internal_error is the correct answer for exactly that request. *)
let soak_kind i =
  match i mod 5 with
  | 0 -> ("print", good_ir, Server.Ok_)
  | 1 -> ("verify", good_ir, Server.Ok_)
  | 2 -> ("verify", bad_parse_ir, Server.Parse_error)
  | 3 -> ("verify", bad_verify_ir, Server.Verify_error)
  | _ -> ("parse", good_ir, Server.Ok_)

let soak () =
  Server.reset_shutdown ();
  let n = soak_n () in
  let ctx = cmath_ctx () in
  Alcotest.(check bool) "arm failpoint" true
    (Result.is_ok (Failpoints.configure "pool.task:97"));
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  let requests =
    List.init n (fun i ->
        let kind, payload, _ = soak_kind i in
        (* A 1-op budget only blows on the 2-op payloads; the malformed
           single-op payload of class 2 parse-fails before the budget can. *)
        let extra =
          if i mod 23 = 11 && i mod 5 <> 2 then [ ("max-ops", "1") ] else []
        in
        encode_req ~id:(string_of_int i) ~kind ~extra payload)
  in
  let config = { Server.default_config with Server.domains = 4 } in
  let answered, responses = serve_over_files ~config ctx requests in
  Alcotest.(check int) "every request answered" n answered;
  Alcotest.(check int) "every response written" n (List.length responses);
  let injected = ref 0 in
  List.iteri
    (fun i rs ->
      Alcotest.(check string)
        (Printf.sprintf "response %d in order" i)
        (string_of_int i) rs.Server.rs_id;
      let _, _, expected = soak_kind i in
      let expected =
        if i mod 23 = 11 && i mod 5 <> 2 then Server.Resource_exhausted
        else expected
      in
      if rs.Server.rs_status = Server.Internal_error then incr injected
      else
        Alcotest.(check string)
          (Printf.sprintf "request %d status" i)
          (Server.status_to_string expected)
          (Server.status_to_string rs.Server.rs_status))
    responses;
  (* The armed failpoint fired — and poisoned only its own requests. *)
  if n >= 97 then
    Alcotest.(check bool) "some requests were poisoned" true (!injected > 0);
  Alcotest.(check int)
    "every injection became one internal_error response"
    (Failpoints.injected_count "pool.task")
    !injected

(* The soak's request mix over the socket: [clients] domains run closed
   loops of connect-send-receive round trips against two serve loops with
   the failpoint armed. Each response is byte-for-byte [serve_fd]'s answer
   to the same frame, unless the failpoint poisoned it. *)
let socket_soak () =
  let n = soak_n () and clients = 3 in
  let ctx = cmath_ctx () in
  let rqs =
    Array.init n (fun i ->
        let kind, payload, _ = soak_kind i in
        let limits =
          if i mod 23 = 11 && i mod 5 <> 2 then Limits.create ~max_ops:1 ()
          else Limits.unlimited
        in
        req ~id:(string_of_int i) ~file:(string_of_int i ^ ".mlir") ~limits
          (Option.get (Server.kind_of_string kind))
          payload)
  in
  Server.reset_shutdown ();
  let _, reference =
    serve_over_files ctx
      (Array.to_list
         (Array.map
            (fun rq ->
              Wire.encode_request
                ~header:(Server.request_header rq ~deadline_ms:0)
                ~payload:rq.Server.rq_payload)
            rqs))
  in
  let reference = Array.of_list (List.map Server.response_frame reference) in
  Alcotest.(check int) "reference answers" n (Array.length reference);
  Alcotest.(check bool) "arm failpoint" true
    (Result.is_ok (Failpoints.configure "pool.task:97"));
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  let got = Array.make n (Error "not sent") in
  let (), answered =
    with_listener ctx @@ fun path ->
    let client k () =
      let i = ref k in
      while !i < n do
        let rq = rqs.(!i) in
        got.(!i) <-
          Server.roundtrip ~path ~kind:rq.Server.rq_kind ~id:rq.Server.rq_id
            ~file:rq.Server.rq_file ~limits:rq.Server.rq_limits
            rq.Server.rq_payload;
        i := !i + clients
      done
    in
    List.iter Domain.join (List.init clients (fun k -> Domain.spawn (client k)))
  in
  Alcotest.(check int) "every request answered" n answered;
  let injected = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Error e -> Alcotest.failf "request %d: %s" i e
      | Ok rs when rs.Server.rs_status = Server.Internal_error -> incr injected
      | Ok rs ->
          Alcotest.(check string)
            (Printf.sprintf "request %d as serve_fd answers it" i)
            reference.(i) (Server.response_frame rs))
    got;
  if n >= 97 then
    Alcotest.(check bool) "some requests were poisoned" true (!injected > 0);
  Alcotest.(check int)
    "every injection became one internal_error response"
    (Failpoints.injected_count "pool.task")
    !injected

let suite =
  [
    tc "wire: header round-trip" wire_header_roundtrip;
    tc "wire: reader reassembles split frames" wire_reader_reassembles;
    tc "wire: oversized payload discarded, bounded" wire_reader_oversized_discard;
    tc "wire: corrupt stream is sticky" wire_reader_corrupt_is_sticky;
    QCheck_alcotest.to_alcotest wire_pieces_prop;
    tc "wire: a large frame costs linear allocation" wire_reader_linear_alloc;
    tc "request: decode and reject" parse_request_cases;
    tc "handle: status classification" handle_classification;
    tc "handle: budgets and ceilings" handle_budgets;
    tc "handle: injected faults poison one request" handle_injected_isolation;
    tc "serve_fd: end to end, ordered" serve_fd_end_to_end;
    tc "serve_fd: oversized + corrupt tail" serve_fd_oversized_and_corrupt;
    tc "serve_fd: answers a frame before decoding the next"
      serve_fd_answers_before_decoding_more;
    tc "serve_fd: drains on shutdown request" serve_fd_drains_on_shutdown_request;
    tc "serve_unix: socket round-trip and shutdown" serve_unix_roundtrip;
    tc "serve_unix: a long request blocks only its own loop"
      serve_unix_no_head_of_line;
    tc "soak: mixed request storm, all answered" soak;
    tc "soak: concurrent socket clients, answers as serve_fd gives them"
      socket_soak;
    tc "handle: a large failing print leaks no descriptor" handle_large_print;
  ]
