(** Tests for the support library: locations, diagnostics, lexing base. *)

open Irdl_support
open Util

let loc_advance () =
  let p = Loc.start_of_file "f" in
  let p = Loc.advance p 'a' in
  Alcotest.(check int) "col" 2 p.col;
  Alcotest.(check int) "line" 1 p.line;
  let p = Loc.advance p '\n' in
  Alcotest.(check int) "line after nl" 2 p.line;
  Alcotest.(check int) "col after nl" 1 p.col;
  Alcotest.(check int) "offset" 2 p.offset

let loc_merge () =
  let a = Loc.start_of_file "f" in
  let b = Loc.advance (Loc.advance a 'x') 'y' in
  let l = Loc.merge (Loc.point a) (Loc.point b) in
  Alcotest.(check int) "start" 0 l.start_pos.offset;
  Alcotest.(check int) "end" 2 l.end_pos.offset;
  (* merge is commutative *)
  let l' = Loc.merge (Loc.point b) (Loc.point a) in
  Alcotest.(check int) "start'" 0 l'.start_pos.offset;
  (* unknown absorbs *)
  let l'' = Loc.merge Loc.unknown (Loc.point b) in
  Alcotest.(check int) "unknown merge" 2 l''.start_pos.offset

let loc_pp () =
  let p = Loc.start_of_file "file.irdl" in
  Alcotest.(check string) "point" "file.irdl:1:1" (Loc.to_string (Loc.point p));
  Alcotest.(check bool) "unknown" true (Loc.is_unknown Loc.unknown);
  let q = Loc.advance (Loc.advance p 'a') 'b' in
  Alcotest.(check string) "span" "file.irdl:1:1-3"
    (Loc.to_string (Loc.span p q))

let diag_format () =
  let d = Diag.error "bad %s %d" "thing" 42 in
  Alcotest.(check string) "msg" "error: bad thing 42" (Diag.to_string d)

let diag_notes () =
  let d = Diag.error ~notes:[ (Loc.unknown, "see here") ] "top" in
  let s = Diag.to_string d in
  Alcotest.(check bool) "has note" true
    (String.length s > String.length "error: top")

let diag_protect () =
  (match Diag.protect (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "ok" 42 v
  | Error _ -> Alcotest.fail "expected Ok");
  match Diag.protect (fun () -> Diag.raise_error "boom %d" 1) with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error d -> Alcotest.(check string) "msg" "error: boom 1" (Diag.to_string d)

let diag_errorf () =
  match (Diag.errorf "x=%d" 3 : (unit, Diag.t) result) with
  | Error d -> Alcotest.(check string) "msg" "error: x=3" (Diag.to_string d)
  | Ok () -> Alcotest.fail "expected Error"

let sbuf_cursor () =
  let b = Sbuf.create "ab c" in
  Alcotest.(check char) "peek" 'a' (Sbuf.peek b);
  Alcotest.(check char) "peek2" 'b' (Sbuf.peek2 b);
  Alcotest.(check bool) "accept a" true (Sbuf.accept b 'a');
  Alcotest.(check bool) "accept z" false (Sbuf.accept b 'z');
  Alcotest.(check char) "after accept" 'b' (Sbuf.peek b);
  Sbuf.advance b;
  Sbuf.skip_while b Sbuf.is_space;
  Alcotest.(check char) "after space" 'c' (Sbuf.peek b);
  Alcotest.(check char) "peek2 past the end" '\000' (Sbuf.peek2 b);
  Sbuf.advance b;
  Alcotest.(check bool) "eof" true (Sbuf.eof b);
  Alcotest.(check char) "peek eof" '\000' (Sbuf.peek b);
  Sbuf.advance b;
  Alcotest.(check bool) "advance at eof is a no-op" true (Sbuf.eof b)

let sbuf_take_while () =
  let b = Sbuf.create "hello42!" in
  Alcotest.(check string) "ident" "hello42"
    (Sbuf.take_while b Sbuf.is_ident_char);
  Alcotest.(check char) "rest" '!' (Sbuf.peek b)

let sbuf_slice () =
  let b = Sbuf.create "abcdef" in
  let start = Sbuf.pos b in
  Sbuf.advance b;
  Sbuf.advance b;
  Sbuf.advance b;
  Alcotest.(check string) "slice" "abc" (Sbuf.slice b start (Sbuf.pos b))

let check_pos what (line, col, offset) (p : Loc.pos) =
  Alcotest.(check (triple int int int)) what (line, col, offset)
    (p.line, p.col, p.offset)

let sbuf_mark_reset () =
  let b = Sbuf.create "ab\ncd\nef" in
  Sbuf.advance b;
  let m = Sbuf.mark b in
  Sbuf.skip_while b (fun c -> c <> 'e');
  check_pos "after two lines" (3, 1, 6) (Sbuf.pos b);
  Sbuf.reset b m;
  check_pos "line and column restored" (1, 2, 1) (Sbuf.pos b);
  Alcotest.(check char) "character restored" 'b' (Sbuf.peek b);
  Alcotest.(check string) "re-reads the same text" "b\ncd"
    (Sbuf.take_while b (fun c -> c <> '\n' || Sbuf.peek2 b <> 'e'))

let sbuf_window () =
  let src = "skip\nme\nx y\nz\nrest" in
  let b =
    Sbuf.create ~file:"w.mlir" ~window:{ start = 8; stop = 13; first_line = 3 }
      src
  in
  check_pos "window start" (3, 1, 8) (Sbuf.pos b);
  Alcotest.(check string) "stays inside the window" "x y\nz"
    (Sbuf.take_while b (fun _ -> true));
  Alcotest.(check bool) "eof at the window's end" true (Sbuf.eof b);
  check_pos "window end" (4, 2, 13) (Sbuf.pos b);
  Alcotest.(check (option string)) "whole source registered" (Some src)
    (Diag.Sources.lookup "w.mlir")

(* A NUL byte is input, not the end: only [eof] says the window is done,
   and every lexer rejects the byte as an unexpected character. *)
let sbuf_nul_byte () =
  let b = Sbuf.create "a\000b" in
  Sbuf.advance b;
  Alcotest.(check char) "NUL reads as itself" '\000' (Sbuf.peek b);
  Alcotest.(check bool) "not eof" false (Sbuf.eof b);
  let rejects what r =
    check_err_containing what "unexpected character '\\000'" r
  in
  rejects "IR lexer"
    (Irdl_ir.Parser.parse_ops (Irdl_ir.Context.create ())
       "\"t.x\"() : () -> ()\n\000\"t.y\"() : () -> ()\n");
  rejects "IRDL lexer"
    (Diag.protect (fun () -> Irdl_core.Lexer.tokenize "Dialect \000 x"));
  (* The pattern parser has no lexer error of its own: a NUL inside an
     s-expression is a bad argument at its column, not an unterminated
     '(' at the end of input. *)
  check_err_containing "pattern parser" "2:13: error: expected '(' or '$'"
    (Irdl_rewrite.Textual.parse_patterns (Irdl_ir.Context.create ())
       "Pattern p {\n Match (t.a \000)\n Rewrite $x }")

let sbuf_classifiers () =
  Alcotest.(check bool) "digit" true (Sbuf.is_digit '7');
  Alcotest.(check bool) "not digit" false (Sbuf.is_digit 'a');
  Alcotest.(check bool) "ident start _" true (Sbuf.is_ident_start '_');
  Alcotest.(check bool) "ident start 1" false (Sbuf.is_ident_start '1');
  Alcotest.(check bool) "ident char $" true (Sbuf.is_ident_char '$');
  Alcotest.(check bool) "space tab" true (Sbuf.is_space '\t')

(* ---------------- monotonic clock ---------------- *)

let monotonic_basics () =
  let t0 = Monotonic.now_ns () in
  let t1 = Monotonic.now_ns () in
  Alcotest.(check bool) "never goes backwards" true (Int64.compare t1 t0 >= 0);
  Alcotest.(check bool) "nonzero epoch" true (Int64.compare t0 0L > 0);
  Alcotest.(check int64) "add_ms is nanoseconds" (Int64.add t0 5_000_000L)
    (Monotonic.add_ms t0 5);
  Alcotest.(check bool) "elapsed_s non-negative" true
    (Monotonic.elapsed_s t0 >= 0.)

(* ---------------- resource budgets ---------------- *)

let limits_meet () =
  let a = Limits.create ~max_ops:100 ~max_depth:4 () in
  let b = Limits.create ~max_ops:10 ~max_payload_bytes:1000 () in
  let m = Limits.meet a b in
  Alcotest.(check int) "strictest ops" 10 m.Limits.max_ops;
  Alcotest.(check int) "unlimited side yields" 4 m.Limits.max_depth;
  Alcotest.(check int) "bytes from b" 1000 m.Limits.max_payload_bytes;
  let u = Limits.meet Limits.unlimited Limits.unlimited in
  Alcotest.(check bool) "unlimited meets to unlimited" true
    (u = Limits.unlimited);
  (* Negative inputs clamp to "unlimited", never to a negative cap. *)
  let c = Limits.create ~max_ops:(-5) () in
  Alcotest.(check int) "negative clamps to 0" 0 c.Limits.max_ops

let budget_code = function
  | Diag.Fatal_exn d -> d.Diag.code
  | e -> Alcotest.failf "expected Fatal_exn, got %s" (Printexc.to_string e)

let limits_ops_budget () =
  let b = Limits.budget (Limits.create ~max_ops:2 ()) in
  let loc = Loc.point (Loc.start_of_file "f") in
  Limits.tick_op b ~loc;
  Limits.tick_op b ~loc;
  (match Limits.tick_op b ~loc with
  | () -> Alcotest.fail "third op must blow the budget"
  | exception e ->
      Alcotest.(check (option string))
        "resource_exhausted code"
        (Some Limits.resource_exhausted) (budget_code e));
  Alcotest.(check int) "ops counted" 3 (Limits.ops_used b)

let limits_depth_budget () =
  let b = Limits.budget (Limits.create ~max_depth:2 ()) in
  let loc = Loc.point (Loc.start_of_file "f") in
  Limits.enter_region b ~loc;
  Limits.enter_region b ~loc;
  (match Limits.enter_region b ~loc with
  | () -> Alcotest.fail "third level must blow the budget"
  | exception e ->
      Alcotest.(check (option string))
        "resource_exhausted code"
        (Some Limits.resource_exhausted) (budget_code e));
  (* Leaving restores headroom: the budget tracks depth, not a count. *)
  Limits.leave_region b;
  Limits.enter_region b ~loc

let limits_deadline () =
  let expired = { Limits.unlimited with Limits.deadline_ns = 1L } in
  let b = Limits.budget expired in
  (match Limits.tick_op b ~loc:(Loc.point (Loc.start_of_file "f")) with
  | () -> Alcotest.fail "expired deadline must abort"
  | exception e ->
      Alcotest.(check (option string))
        "deadline_exceeded code"
        (Some Limits.deadline_exceeded) (budget_code e));
  (* A generous deadline does not fire. *)
  let later = Limits.with_deadline_ms Limits.unlimited 60_000 in
  let b = Limits.budget later in
  Limits.tick_op b ~loc:(Loc.point (Loc.start_of_file "f"));
  Alcotest.(check bool) "budget codes recognized" true
    (Limits.is_budget_code (Some Limits.resource_exhausted)
    && Limits.is_budget_code (Some Limits.deadline_exceeded)
    && (not (Limits.is_budget_code (Some "other")))
    && not (Limits.is_budget_code None))

(* Fatal diagnostics escape [protect] (fail-soft recovery must not swallow
   a blown budget) but are converted by [protect_any] (the outermost
   guard), keeping their structured code. *)
let diag_fatal_protection () =
  (match Diag.protect (fun () -> Diag.raise_fatal ~code:"c" "boom") with
  | _ -> Alcotest.fail "protect must not catch Fatal_exn"
  | exception Diag.Fatal_exn d ->
      Alcotest.(check (option string)) "code survives" (Some "c") d.Diag.code);
  match Diag.protect_any (fun () -> Diag.raise_fatal ~code:"c" "boom") with
  | Error d ->
      Alcotest.(check (option string)) "protect_any converts" (Some "c")
        d.Diag.code
  | Ok _ -> Alcotest.fail "protect_any must return the error"

(* ---------------- fault injection ---------------- *)

let failpoints_cadence () =
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  Alcotest.(check bool) "arm" true (Result.is_ok (Failpoints.configure "x:3"));
  Alcotest.(check bool) "active" true (Failpoints.active ());
  let fired = ref 0 in
  for _ = 1 to 9 do
    match Failpoints.hit "x" with
    | () -> ()
    | exception Failpoints.Injected "x" -> incr fired
    | exception Failpoints.Injected other ->
        Alcotest.failf "wrong seam: %s" other
  done;
  Alcotest.(check int) "every 3rd hit fires" 3 !fired;
  Alcotest.(check int) "injections observable" 3
    (Failpoints.injected_count "x");
  (* A document counts its own hits from zero; the enclosing count
     (here 9 hits) resumes after it. *)
  let fires () =
    match Failpoints.hit "x" with
    | () -> false
    | exception Failpoints.Injected _ -> true
  in
  let in_doc =
    Failpoints.in_document (fun () -> List.init 4 (fun _ -> fires ()))
  in
  Alcotest.(check (list bool)) "a document fires on its own 3rd hit"
    [ false; false; true; false ] in_doc;
  Alcotest.(check (list bool)) "the enclosing count resumes at 10"
    [ false; false; true ] (List.init 3 (fun _ -> fires ()));
  (* Unarmed seams pass through; clearing disarms. *)
  Failpoints.hit "y";
  Failpoints.clear ();
  Failpoints.hit "x";
  Alcotest.(check bool) "inactive after clear" false (Failpoints.active ())

let failpoints_configure_errors () =
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  Alcotest.(check bool) "ok spec" true
    (Result.is_ok (Failpoints.configure "parse,verify:2"));
  let armed_before = Failpoints.armed () in
  Alcotest.(check bool) "bad cadence rejected" true
    (Result.is_error (Failpoints.configure "parse:0"));
  Alcotest.(check bool) "bad entry rejected" true
    (Result.is_error (Failpoints.configure "a:b:c"));
  (* A rejected spec keeps the previous configuration. *)
  Alcotest.(check int) "previous config kept"
    (List.length armed_before)
    (List.length (Failpoints.armed ()));
  Alcotest.(check bool) "empty spec disarms" true
    (Result.is_ok (Failpoints.configure ""));
  Alcotest.(check bool) "disarmed" false (Failpoints.active ())

(* The seams are live: an armed parse seam poisons parsing with a
   structured injected_fault diagnostic instead of crashing. *)
let failpoints_parse_seam () =
  Fun.protect ~finally:Failpoints.clear @@ fun () ->
  Alcotest.(check bool) "arm parse" true
    (Result.is_ok (Failpoints.configure "parse"));
  let ctx = Irdl_ir.Context.create () in
  match Irdl_ir.Parser.parse_ops ctx "%a = \"t.x\"() : () -> (i32)\n" with
  | Ok _ -> Alcotest.fail "armed parse seam must fail the parse"
  | Error d ->
      Alcotest.(check (option string))
        "structured code" (Some "injected_fault") d.Diag.code

let suite =
  [
    tc "loc: advance tracks lines and columns" loc_advance;
    tc "monotonic: clock basics" monotonic_basics;
    tc "limits: meet is pointwise strictest" limits_meet;
    tc "limits: op budget aborts with code" limits_ops_budget;
    tc "limits: region depth budget" limits_depth_budget;
    tc "limits: deadlines" limits_deadline;
    tc "diag: fatal escapes protect, not protect_any" diag_fatal_protection;
    tc "failpoints: cadence and counters" failpoints_cadence;
    tc "failpoints: malformed specs rejected" failpoints_configure_errors;
    tc "failpoints: parse seam is live" failpoints_parse_seam;
    tc "loc: merge covers both spans" loc_merge;
    tc "loc: printing" loc_pp;
    tc "diag: formatted message" diag_format;
    tc "diag: notes attach" diag_notes;
    tc "diag: protect catches raise_error" diag_protect;
    tc "diag: errorf returns Error" diag_errorf;
    tc "sbuf: cursor operations" sbuf_cursor;
    tc "sbuf: take_while" sbuf_take_while;
    tc "sbuf: slice between positions" sbuf_slice;
    tc "sbuf: character classifiers" sbuf_classifiers;
    tc "sbuf: mark and reset" sbuf_mark_reset;
    tc "sbuf: window of a source" sbuf_window;
    tc "sbuf: NUL byte is not end of input" sbuf_nul_byte;
  ]
