(** The diagnostic engine: counting, capping, handlers, sinks, snippet
    rendering, and the --split-input-file / --verify-diagnostics harness. *)

open Irdl_support
open Util

let pos file line col offset = { Loc.file; line; col; offset }

let loc_at ?(file = "t.mlir") line col width off =
  Loc.span (pos file line col off) (pos file line (col + width) (off + width))

(* ---------------- engine bookkeeping ---------------- *)

let counts () =
  let e = Diag.Engine.create () in
  Diag.Engine.emit e (Diag.error "boom");
  Diag.Engine.emit e (Diag.warning "hm");
  Diag.Engine.emit e (Diag.make ~severity:Diag.Note "fyi");
  Diag.Engine.emit e (Diag.error "boom again");
  Alcotest.(check int) "errors" 2 (Diag.Engine.error_count e);
  Alcotest.(check int) "warnings" 1 (Diag.Engine.warning_count e);
  Alcotest.(check int) "notes" 1 (Diag.Engine.note_count e);
  Alcotest.(check bool) "has_errors" true (Diag.Engine.has_errors e);
  Alcotest.(check (list string)) "emission order"
    [ "boom"; "hm"; "fyi"; "boom again" ]
    (List.map (fun (d : Diag.t) -> d.message) (Diag.Engine.diagnostics e))

let error_cap () =
  let e = Diag.Engine.create ~max_errors:2 () in
  Diag.Engine.emit e (Diag.error "one");
  Alcotest.(check bool) "below cap" false (Diag.Engine.limit_reached e);
  Diag.Engine.emit e (Diag.error "two");
  Alcotest.(check bool) "at cap" true (Diag.Engine.limit_reached e);
  Diag.Engine.emit e (Diag.error "three");
  Diag.Engine.emit e (Diag.warning "still recorded");
  Alcotest.(check int) "errors capped" 2 (Diag.Engine.error_count e);
  Alcotest.(check int) "suppressed" 1 (Diag.Engine.suppressed_count e);
  Alcotest.(check int) "warnings pass the cap" 1
    (Diag.Engine.warning_count e);
  Alcotest.(check int) "recorded list excludes suppressed" 3
    (List.length (Diag.Engine.diagnostics e))

(* A task's engine, replayed into a capped main engine: the handlers see
   only what the main cap keeps, and both engines' suppressed errors are
   counted. *)
let replay_into_capped () =
  let task = Diag.Engine.create ~max_errors:2 () in
  List.iter (fun m -> Diag.Engine.emit task (Diag.error "%s" m))
    [ "a"; "b"; "c" ];
  let main = Diag.Engine.create ~max_errors:1 () in
  let seen = ref [] in
  Diag.Engine.add_handler main (fun d -> seen := d.message :: !seen);
  List.iter (Diag.Engine.emit main) (Diag.Engine.diagnostics task);
  Diag.Engine.add_suppressed main (Diag.Engine.suppressed_count task);
  Alcotest.(check (list string)) "handlers see the kept error" [ "a" ] !seen;
  Alcotest.(check int) "errors" 1 (Diag.Engine.error_count main);
  Alcotest.(check int) "suppressed: one by the task, one by the cap" 2
    (Diag.Engine.suppressed_count main);
  Alcotest.(check bool) "json counts them" true
    (let j = Diag.Engine.to_json main in
     let needle = {|"suppressed": 2|} in
     let rec find i =
       i + String.length needle <= String.length j
       && (String.sub j i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let handlers () =
  let e = Diag.Engine.create () in
  let seen = ref [] in
  Diag.Engine.add_handler e (fun d -> seen := ("a:" ^ d.message) :: !seen);
  Diag.Engine.add_handler e (fun d -> seen := ("b:" ^ d.message) :: !seen);
  Diag.Engine.emit e (Diag.error "x");
  Alcotest.(check (list string)) "both handlers, registration order"
    [ "b:x"; "a:x" ] !seen

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let json_sink () =
  let e = Diag.Engine.create () in
  Diag.Engine.emit e (Diag.error ~loc:(loc_at 3 7 4 20) "bad \"thing\"");
  Diag.Engine.emit e (Diag.warning "odd");
  let json = Diag.Engine.to_json e in
  List.iter
    (fun needle ->
      if not (contains json needle) then
        Alcotest.failf "JSON %s lacks %S" json needle)
    [ {|"errors": 1|}; {|"warnings": 1|}; {|"file": "t.mlir"|};
      {|"line": 3|}; {|bad \"thing\"|}; {|"severity": "warning"|} ]

(* ---------------- snippet rendering ---------------- *)

let snippet () =
  let src = "first line\nsecond line\nthird" in
  Diag.Sources.register ~file:"snip.x" src;
  let d = Diag.error ~loc:(loc_at ~file:"snip.x" 2 8 4 18) "bad suffix" in
  let rendered = Fmt.str "%a" Diag.pp_rendered d in
  Alcotest.(check string) "caret under the span"
    "snip.x:2:8-12: error: bad suffix\n\
    \  2 | second line\n\
    \    |        ^~~~" rendered

let snippet_unknown_source () =
  let d = Diag.error ~loc:(loc_at ~file:"not-registered.x" 1 1 3 0) "eh" in
  Alcotest.(check string) "falls back to the plain header"
    (Fmt.str "%a" Diag.pp d)
    (Fmt.str "%a" Diag.pp_rendered d)

(* ---------------- split-input-file ---------------- *)

let window_text src (w : Sbuf.window) =
  String.sub src w.start (w.stop - w.start)

let split_basic () =
  let src = "a1\na2\n// -----\nb1\n" in
  match Diag_harness.split_input src with
  | [ w1; w2 ] ->
      Alcotest.(check (triple int int int))
        "first chunk: lines 1-2, without the newline before the separator"
        (0, 5, 1) (w1.start, w1.stop, w1.first_line);
      Alcotest.(check string) "first chunk text" "a1\na2" (window_text src w1);
      Alcotest.(check (triple int int int))
        "second chunk starts on line 4, at its true offset" (15, 18, 4)
        (w2.start, w2.stop, w2.first_line);
      Alcotest.(check string) "second chunk text" "b1\n" (window_text src w2)
  | ws -> Alcotest.failf "expected 2 chunks, got %d" (List.length ws)

let split_edges () =
  let windows src =
    List.map
      (fun (w : Sbuf.window) -> (window_text src w, w.first_line))
      (Diag_harness.split_input src)
  in
  Alcotest.(check (list (pair string int)))
    "leading, doubled and trailing separators make empty chunks"
    [ ("", 1); ("x", 2); ("", 4); ("", 5) ]
    (windows "// -----\nx\n// -----\n// -----");
  Alcotest.(check (list (pair string int)))
    "blanks around the dashes, CRLF, no final newline"
    [ ("a\r", 1); ("b", 3) ]
    (windows "a\r\n  // -----  \r\nb");
  Alcotest.(check (list (pair string int)))
    "not a separator" [ ("// ----- x\n//-----\n", 1) ]
    (windows "// ----- x\n//-----\n")

let split_none () =
  let src = "only\nchunk\n" in
  match Diag_harness.split_input src with
  | [ w ] ->
      Alcotest.(check bool) "the whole source" true (w = Sbuf.whole src)
  | ws -> Alcotest.failf "expected 1 chunk, got %d" (List.length ws)

(* A split run parses each chunk where it sits in the one source; the
   property is that this is exactly parsing the chunk's text on its own,
   with every location moved to where the chunk starts. *)
let split_gen =
  let open QCheck2.Gen in
  let line =
    oneofl
      [
        {|%a = "t.x"() : () -> i32|};
        {|"t.y"(%a) : (i32) -> ()|};
        {|"t.z"(%undef) : (i32) -> ()|};
        {|%b = "t.bad"(%a : (i32) -> i32|};
        {|"t.r"() ({ ^bb0: "t.t"() : () -> () }) : () -> ()|};
        {|"unterminated|};
        "$ \000 }";
        "";
        "  // a comment";
      ]
  in
  let separator =
    oneofl [ "// -----"; "// -----   "; "  // -----"; "// -----\r" ]
  in
  let chunk = list_size (int_range 0 4) line in
  let file =
    let* chunks = list_size (int_range 1 5) chunk in
    let* seps = list_repeat (List.length chunks) separator in
    let* sep_first = bool and* final_newline = bool in
    let body =
      List.concat
        (List.mapi
           (fun i c -> if i = 0 then c else List.nth seps i :: c)
           chunks)
    in
    let lines = if sep_first then List.hd seps :: body else body in
    return (String.concat "\n" lines ^ if final_newline then "\n" else "")
  in
  pair file (oneofl [ 0; 40 ])

let split_property =
  QCheck2.Test.make ~name:"split chunks parse as if alone, shifted" ~count:300
    ~print:(fun (src, cap) -> Printf.sprintf "cap %d: %S" cap src)
    split_gen
    (fun (src, cap) ->
      let ctx = Irdl_ir.Context.create () in
      let limits = Limits.create ~max_payload_bytes:cap () in
      let parse ~file payload =
        let engine = Diag.Engine.create () in
        ignore
          (Irdl_bytecode.Frontend.run ~file ~engine ~limits ~verify:false ctx
             payload);
        Diag.Engine.diagnostics engine
      in
      let module Source = Irdl_bytecode.Frontend.Source in
      List.for_all
        (fun chunk ->
          match chunk with
          | Source.Binary _ -> false
          | Source.Text (_, (w : Sbuf.window)) ->
              let shift (l : Loc.t) =
                let p (q : Loc.pos) =
                  { q with
                    file = "split.mlir";
                    line = q.line + w.first_line - 1;
                    offset = q.offset + w.start;
                  }
                in
                if Loc.is_unknown l then l
                else { start_pos = p l.start_pos; end_pos = p l.end_pos }
              in
              let alone =
                parse ~file:"alone.mlir"
                  (Source.classify (window_text src w))
                |> List.map (fun (d : Diag.t) ->
                       {
                         d with
                         loc = shift d.loc;
                         notes = List.map (fun (l, n) -> (shift l, n)) d.notes;
                       })
              in
              let split = parse ~file:"split.mlir" chunk in
              if split = alone then true
              else
                QCheck2.Test.fail_reportf "chunk at line %d:@.%a@.vs alone:@.%a"
                  w.first_line
                  Fmt.(list ~sep:cut Diag.pp) split
                  Fmt.(list ~sep:cut Diag.pp) alone)
        (Source.chunks ~split:true (Source.classify src)))

(* ---------------- expectation scanning and checking ---------------- *)

let scan () =
  let src =
    "op1\n\
     // expected-error@below {{bad op}}\n\
     op2  // expected-warning {{shady}}\n\
     // expected-error@+2 {{later}}\n\
     \n\
     op3\n"
  in
  let exps, errs = Diag_harness.scan_expectations ~file:"f.mlir" src in
  Alcotest.(check int) "no harness errors" 0 (List.length errs);
  Alcotest.(check (list (pair int string)))
    "lines and substrings"
    [ (3, "bad op"); (3, "shady"); (6, "later") ]
    (List.map
       (fun (e : Diag_harness.expectation) -> (e.exp_line, e.exp_substr))
       exps)

(* The expectation scan as it was before it became one linear pass: a
   naive per-position search on every line. The property below holds the
   library to exactly its results. *)
module Reference_scan = struct
  let matches_at src i sub =
    let m = String.length sub in
    i >= 0 && i + m <= String.length src
    &&
    let rec go k = k = m || (src.[i + k] = sub.[k] && go (k + 1)) in
    go 0

  let find_from s ~stop sub from =
    let m = String.length sub in
    let rec go i =
      if m = 0 || i + m > stop then None
      else if matches_at s i sub then Some i
      else go (i + 1)
    in
    go (max 0 from)

  let parse_offset line ~stop:n i =
    if i >= n || line.[i] <> '@' then Some (0, i)
    else
      let i = i + 1 in
      let word_at w delta =
        let m = String.length w in
        if i + m <= n && matches_at line i w then Some (delta, i + m) else None
      in
      match word_at "above" (-1) with
      | Some _ as r -> r
      | None -> (
          match word_at "below" 1 with
          | Some _ as r -> r
          | None ->
              if i < n && (line.[i] = '+' || line.[i] = '-') then begin
                let sign = if line.[i] = '+' then 1 else -1 in
                let j = ref (i + 1) in
                let v = ref 0 in
                let digits = ref 0 in
                while
                  !j < n && line.[!j] >= '0' && line.[!j] <= '9' && !digits < 6
                do
                  v := (!v * 10) + (Char.code line.[!j] - Char.code '0');
                  incr j;
                  incr digits
                done;
                if !digits = 0 then None else Some (sign * !v, !j)
              end
              else None)

  let keywords =
    [
      ("expected-error", Diag.Error);
      ("expected-warning", Diag.Warning);
      ("expected-note", Diag.Note);
    ]

  (* (line, declared line, severity, substring) and rendered errors. *)
  let scan_line ~file ~lineno line ~start ~stop =
    match find_from line ~stop "//" start with
    | None -> ([], [])
    | Some comment_at ->
        let expectations = ref [] and errors = ref [] in
        List.iter
          (fun (kw, severity) ->
            let rec scan from =
              match find_from line ~stop kw from with
              | None -> ()
              | Some i when i < comment_at -> scan (i + 1)
              | Some i -> (
                  let after = i + String.length kw in
                  match parse_offset line ~stop after with
                  | None ->
                      errors :=
                        Printf.sprintf
                          "error: %s:%d: malformed offset after '%s' \
                           (expected @+N, @-N, @above or @below)"
                          file lineno kw
                        :: !errors;
                      scan (after + 1)
                  | Some (delta, j) -> (
                      let j = ref j in
                      while
                        !j < stop && (line.[!j] = ' ' || line.[!j] = '\t')
                      do
                        incr j
                      done;
                      match find_from line ~stop "{{" !j with
                      | Some b when b = !j -> (
                          match find_from line ~stop "}}" (b + 2) with
                          | None ->
                              errors :=
                                Printf.sprintf
                                  "error: %s:%d: unterminated {{...}} after \
                                   '%s'"
                                  file lineno kw
                                :: !errors;
                              scan (after + 1)
                          | Some e ->
                              expectations :=
                                ( lineno + delta,
                                  lineno,
                                  severity,
                                  String.sub line (b + 2) (e - b - 2) )
                                :: !expectations;
                              scan (e + 2))
                      | _ ->
                          errors :=
                            Printf.sprintf
                              "error: %s:%d: expected {{...}} after '%s'" file
                              lineno kw
                            :: !errors;
                          scan (after + 1)))
            in
            scan comment_at)
          keywords;
        (List.rev !expectations, List.rev !errors)

  let scan_expectations ~file src =
    let len = String.length src in
    let expectations = ref [] and errors = ref [] in
    let rec go start lineno =
      let stop =
        match String.index_from_opt src start '\n' with
        | Some j -> j
        | None -> len
      in
      let exps, errs = scan_line ~file ~lineno src ~start ~stop in
      expectations := List.rev_append exps !expectations;
      errors := List.rev_append errs !errors;
      if stop < len then go (stop + 1) (lineno + 1)
    in
    go 0 1;
    (List.rev !expectations, List.rev !errors)

  (* The walk of [Diag_harness.scan] as it was before it jumped from [/] to
     [/]: one step per byte, a line with a [//] either a separator
     ([String.trim] of it is ["// -----"]) or scanned for annotations. *)
  let scan ~file src =
    let len = String.length src in
    let chunks = ref [] and start = ref 0 and first_line = ref 1 in
    let expectations = ref [] and errors = ref [] in
    let rec go i ls lineno =
      if i < len then
        match src.[i] with
        | '\n' -> go (i + 1) (i + 1) (lineno + 1)
        | '/' when i + 1 < len && src.[i + 1] = '/' ->
            let le =
              match String.index_from_opt src i '\n' with
              | Some j -> j
              | None -> len
            in
            let line = String.sub src ls (le - ls) in
            (if String.trim line = "// -----" then begin
               let stop = if ls > !start then ls - 1 else !start in
               chunks :=
                 { Sbuf.start = !start; stop; first_line = !first_line }
                 :: !chunks;
               start := min len (le + 1);
               first_line := lineno + 1
             end
             else
               let exps, errs =
                 scan_line ~file ~lineno src ~start:ls ~stop:le
               in
               expectations := List.rev_append exps !expectations;
               errors := List.rev_append errs !errors);
            go (le + 1) (le + 1) (lineno + 1)
        | _ -> go (i + 1) ls lineno
    in
    go 0 0 1;
    let windows =
      List.rev
        ({ Sbuf.start = !start; stop = len; first_line = !first_line }
        :: !chunks)
    in
    (windows, (List.rev !expectations, List.rev !errors))
end

(* Lines of annotation fragments, valid and malformed, joined by LF or
   CRLF. *)
let annotated_gen =
  let open QCheck2.Gen in
  let frag =
    oneofl
      [
        "// "; "//"; "/"; " "; "\t"; "\r"; "expected-error"; "expected-warning";
        "expected-note"; "expected-"; "@+1"; "@-2"; "@+"; "@above"; "@below";
        "@x"; "@"; "@+1234567"; "{{"; "}}"; "{"; "}"; "msg"; "'d.op' requires";
        "%0 = \"t.x\"() : () -> ()"; "\n"; "\r\n";
      ]
  in
  map (String.concat "") (list_size (int_range 0 40) frag)

let scan_matches_reference =
  QCheck2.Test.make ~name:"expectation scan matches the per-position scan"
    ~count:1000 ~print:(Printf.sprintf "%S") annotated_gen (fun src ->
      let exps, errs = Diag_harness.scan_expectations ~file:"a.mlir" src in
      let got =
        ( List.map
            (fun (e : Diag_harness.expectation) ->
              (e.exp_line, e.exp_decl_line, e.exp_severity, e.exp_substr))
            exps,
          List.map Diag.to_string errs )
      in
      got = Reference_scan.scan_expectations ~file:"a.mlir" src)

(* ---------------- the scan against its per-byte reference ---------------- *)

(* Sources of separator, annotation, code and slash lines, each ended by
   LF or CRLF, with or without a final newline. Separators carry blanks
   around them and may open or close the source; [//] also sits inside
   string literals, and lone [/] are scattered. *)
let scan_source_gen =
  let open QCheck2.Gen in
  let separator =
    oneofl
      [
        "// -----"; "  // -----  "; "\t// -----"; "// -----\r"; " \012// -----";
        "// ----"; "// ------"; "x // -----"; "// - ----";
      ]
  in
  let annotation =
    map (String.concat "")
      (list_size (int_range 1 8)
         (oneofl
            [
              "// "; "//"; "/"; " "; "\t"; "expected-error"; "expected-warning";
              "expected-note"; "@+1"; "@-2"; "@+"; "@above"; "@below"; "@x";
              "{{"; "}}"; "msg"; "%0 = \"t.x\"() : () -> ()";
            ]))
  in
  let code =
    oneofl
      [
        {|%a = "t.x"() : () -> i32|};
        {|%s = "t.s"() {v = "a // b"} : () -> ()|};
        {|"t.u"() {v = "// -----"} : () -> ()|};
        {|"t.e"() {v = "// expected-error {{x}}"} : () -> ()|};
        "a / b"; "/"; "x/"; "/y / z"; ""; "   ";
      ]
  in
  let line = frequency [ (1, separator); (2, annotation); (3, code) ] in
  let* first = opt separator and* last = opt separator in
  let* body = list_size (int_range 0 30) line in
  let lines = Option.to_list first @ body @ Option.to_list last in
  let* ends = list_repeat (List.length lines) (oneofl [ "\n"; "\r\n" ]) in
  let* final_newline = bool in
  let n = List.length lines in
  return
    (String.concat ""
       (List.mapi
          (fun i l ->
            if i = n - 1 && not final_newline then l else l ^ List.nth ends i)
          lines))

(* Whether [Diag_harness.scan] gives the reference's chunks, expectations
   and errors. *)
let scan_agrees src =
  let windows, (exps, errs) = Diag_harness.scan ~file:"a.mlir" src in
  ( windows,
    ( List.map
        (fun (e : Diag_harness.expectation) ->
          (e.exp_line, e.exp_decl_line, e.exp_severity, e.exp_substr))
        exps,
      List.map Diag.to_string errs ) )
  = Reference_scan.scan ~file:"a.mlir" src

let scan_matches_per_byte_walk =
  QCheck2.Test.make ~name:"scan matches the per-byte walk" ~count:2000
    ~print:(Printf.sprintf "%S") scan_source_gen scan_agrees

let scan_edge_sources () =
  List.iter
    (fun src ->
      if not (scan_agrees src) then
        Alcotest.failf "scan differs from the per-byte walk on %S" src)
    [
      ""; "/"; "//"; "\n"; "// -----"; "  // -----  "; "// -----\n";
      "\n// -----"; "a\r\n// -----\r\nb"; "x/\n/y\n//"; "/\n/";
      "%s = \"a // expected-error {{x}}\"";
      "// expected-error@+1 {{a}}\r\nop\r\n// -----\r\n// expected-note {{b}}";
    ]

(* [Memscan.line_starts], [count] and [index] against per-byte loops, on
   sources long enough to cross the word-at-a-time count's flush (255
   words) and with ranges of every alignment. *)
let memscan_sources =
  let open QCheck2.Gen in
  let* n = frequency [ (4, int_range 0 100); (1, int_range 2000 5000) ] in
  let* s =
    string_size ~gen:(oneofl [ '\n'; '\n'; 'a'; '/'; '\r' ]) (return n)
  in
  let* from = int_range 0 n in
  let* stop = int_range from n in
  return (s, from, stop)

let memscan_matches_per_byte =
  QCheck2.Test.make ~name:"memscan matches per-byte loops" ~count:1000
    ~print:(fun (s, from, stop) -> Printf.sprintf "%d..%d of %S" from stop s)
    memscan_sources (fun (s, from, stop) ->
      let starts = ref [ 0 ] in
      String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) s;
      let count c =
        let n = ref 0 in
        for i = from to stop - 1 do if s.[i] = c then incr n done;
        !n
      in
      let rec index c i =
        if i >= stop then -1 else if s.[i] = c then i else index c (i + 1)
      in
      Memscan.line_starts s = Array.of_list (List.rev !starts)
      && List.for_all
           (fun c ->
             Memscan.count s c ~from ~stop = count c
             && Memscan.index s c ~from ~stop = index c from)
           [ '\n'; '/'; 'a'; '\r'; 'z' ])

let line_starts_cases () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check (array int)) (Printf.sprintf "%S" src) want
        (Memscan.line_starts src))
    [
      ("", [| 0 |]);
      ("\n", [| 0; 1 |]);
      ("a", [| 0 |]);
      ("a\nb", [| 0; 2 |]);
      ("a\r\nb\n", [| 0; 3; 5 |]);
      ("\n\n", [| 0; 1; 2 |]);
    ];
  (* A line per byte. *)
  let s = String.make 5000 '\n' in
  Alcotest.(check (array int)) "5000 newlines" (Array.init 5001 Fun.id)
    (Memscan.line_starts s)

let scan_malformed () =
  let _, errs =
    Diag_harness.scan_expectations ~file:"f.mlir"
      "// expected-error@wat {{x}}\n// expected-error {{unterminated\n"
  in
  Alcotest.(check int) "both reported" 2 (List.length errs)

let check_matching () =
  let src = "// expected-error@below {{undefined}}\nuse\n" in
  let exps, _ = Diag_harness.scan_expectations ~file:"f.mlir" src in
  let produced = [ Diag.error ~loc:(loc_at ~file:"f.mlir" 2 1 3 0) "use of undefined value" ] in
  Alcotest.(check int) "fulfilled" 0
    (List.length (Diag_harness.check ~expectations:exps produced));
  (* Same expectation, nothing produced: one failure. *)
  let exps, _ = Diag_harness.scan_expectations ~file:"f.mlir" src in
  (match Diag_harness.check ~expectations:exps [] with
  | [ d ] ->
      check_err_containing "unfulfilled" "was not produced" (Error d)
  | ds -> Alcotest.failf "expected 1 failure, got %d" (List.length ds));
  (* Unexpected diagnostic: one failure naming it. *)
  (match Diag_harness.check ~expectations:[] produced with
  | [ d ] -> check_err_containing "unexpected" "unexpected error" (Error d)
  | ds -> Alcotest.failf "expected 1 failure, got %d" (List.length ds))

let check_severity_mismatch () =
  let exps, _ =
    Diag_harness.scan_expectations ~file:"f.mlir"
      "// expected-warning@below {{oops}}\nx\n"
  in
  let produced = [ Diag.error ~loc:(loc_at ~file:"f.mlir" 2 1 1 0) "oops" ] in
  Alcotest.(check int) "error does not satisfy expected-warning" 2
    (List.length (Diag_harness.check ~expectations:exps produced))

(* The scan's differential against its per-byte reference. *)
let scan_suite =
  [
    QCheck_alcotest.to_alcotest scan_matches_per_byte_walk;
    tc "scan edge sources match the per-byte walk" scan_edge_sources;
    QCheck_alcotest.to_alcotest memscan_matches_per_byte;
    tc "line_starts of small and newline-only sources" line_starts_cases;
  ]

let suite =
  [
    tc "severity counts and order" counts;
    tc "max-errors cap suppresses" error_cap;
    tc "replay into a capped engine" replay_into_capped;
    tc "handlers run in order" handlers;
    tc "JSON sink" json_sink;
    tc "caret snippet rendering" snippet;
    tc "snippet falls back without source" snippet_unknown_source;
    tc "split-input-file chunks are windows" split_basic;
    tc "split-input-file without separator" split_none;
    tc "split-input-file edge cases" split_edges;
    QCheck_alcotest.to_alcotest split_property;
    tc "expectation scanning" scan;
    tc "malformed annotations are harness errors" scan_malformed;
    QCheck_alcotest.to_alcotest scan_matches_reference;
    tc "expectation checking" check_matching;
    tc "severity must match" check_severity_mismatch;
  ]
