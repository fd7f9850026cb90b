(** Differential tests for the parser's per-domain name table and
    signature memo: a parse with warm tables must show exactly what a
    parse on a fresh domain, whose tables are empty, shows — the same
    printed ops at the same locations and the same diagnostics. *)

open Irdl_ir
open Util
module Diag = Irdl_support.Diag
module Loc = Irdl_support.Loc
module Sbuf = Irdl_support.Sbuf

(* A location with its byte offsets, which [Loc.to_string] leaves out. *)
let render_loc (l : Loc.t) =
  Printf.sprintf "%s [%d-%d]" (Loc.to_string l) l.start_pos.offset
    l.end_pos.offset

let render_diag (d : Diag.t) =
  Printf.sprintf "%s [%d-%d]" (Diag.to_string d) d.loc.start_pos.offset
    d.loc.end_pos.offset

type view = {
  printed : string;
  op_locs : string list;
  diags : string list;  (** with an engine *)
  first_error : string option;  (** without one *)
}

(* Everything a parse of [src] shows, with and without an engine. *)
let parse_view ?window ctx src =
  let engine = Diag.Engine.create () in
  let ops =
    match Parser.parse_ops ~file:"memo.mlir" ~engine ?window ctx src with
    | Ok ops -> ops
    | Error _ -> Alcotest.fail "a parse with an engine returned Error"
  in
  let first_error =
    match Parser.parse_ops ~file:"memo.mlir" ?window ctx src with
    | Ok _ -> None
    | Error d -> Some (render_diag d)
  in
  {
    printed = Printer.ops_to_string ~generic:true ctx ops;
    op_locs = List.map (fun (op : Graph.op) -> render_loc op.op_loc) ops;
    diags = List.map render_diag (Diag.Engine.diagnostics engine);
    first_error;
  }

(* The same parse on a fresh domain: cold name table, cold memo. *)
let cold_view ?window ctx src =
  Domain.join (Domain.spawn (fun () -> parse_view ?window ctx src))

let pp_view v =
  Printf.sprintf "printed:\n%s\nop locs: %s\ndiags:\n%s\nfirst error: %s"
    v.printed
    (String.concat ", " v.op_locs)
    (String.concat "\n" v.diags)
    (Option.value ~default:"-" v.first_error)

(* Cold, then twice warm on this domain: all three must agree. *)
let cold_warm_agree ?window ctx src =
  let cold = cold_view ?window ctx src in
  let warm1 = parse_view ?window ctx src in
  let warm2 = parse_view ?window ctx src in
  if cold = warm1 && warm1 = warm2 then Ok warm2
  else
    Error
      (Printf.sprintf "cold:\n%s\n\nwarm:\n%s\n\nwarm again:\n%s" (pp_view cold)
         (pp_view warm1) (pp_view warm2))

let agree ?window ctx src =
  match cold_warm_agree ?window ctx src with
  | Ok v -> v
  | Error msg -> Alcotest.failf "cold and warm parses differ on %S:\n%s" src msg

(* ---------------------------------------------------------------- *)
(* Printed Skeleton modules, byte-mutated                            *)
(* ---------------------------------------------------------------- *)

type edit = Replace of int * char | Delete of int | Insert of int * char

let apply_edit s = function
  | _ when s = "" -> s
  | Replace (i, c) ->
      let i = i mod String.length s in
      String.mapi (fun j d -> if j = i then c else d) s
  | Delete i ->
      let i = i mod String.length s in
      String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Insert (i, c) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)

let edit_gen =
  let open QCheck2.Gen in
  let byte =
    oneofl
      [ '<'; '>'; '"'; '-'; ','; '('; ')'; '{'; '}'; '!'; '#'; '%'; ':'; ' ';
        '\n'; 'x'; '.'; '~'; '\\'; '0'; '/' ]
  in
  oneof
    [
      map2 (fun i c -> Replace (i, c)) nat byte;
      map (fun i -> Delete i) nat;
      map2 (fun i c -> Insert (i, c)) nat byte;
    ]

let module_gen =
  let open QCheck2.Gen in
  let* () = pure () in
  let c = Lazy.force Test_verify_memo.corpus in
  let* picks = Test_verify_memo.gen_picks c in
  let text =
    Printer.ops_to_string ~generic:true c.ctx [ Test_verify_memo.build c picks ]
  in
  let* edits = list_size (int_range 0 4) edit_gen in
  pure (List.fold_left apply_edit text edits)

(* The generated modules repeat their signatures, so the first warm parse
   records them and the second one hits the signature memo. *)
let warm_matches_cold =
  QCheck2.Test.make ~name:"warm tables parse like cold ones" ~count:150
    ~print:(Printf.sprintf "%S") module_gen (fun src ->
      let c = Lazy.force Test_verify_memo.corpus in
      match cold_warm_agree c.ctx src with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let rec find_sub s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_sub s sub (i + 1)

(* The signature spans of a printed module: from the [(] after the last
   [" : ("] of each line to the line's end. *)
let signature_spans text =
  let spans = ref [] and start = ref 0 in
  List.iter
    (fun line ->
      let rec last j found =
        match find_sub line " : (" j with
        | Some k -> last (k + 1) (Some k)
        | None -> found
      in
      (match last 0 None with
      | Some k ->
          spans := (!start + k + 3, !start + String.length line) :: !spans
      | None -> ());
      start := !start + String.length line + 1)
    (String.split_on_char '\n' text);
  Array.of_list (List.rev !spans)

(* A printed module and a copy with 1-4 byte edits inside its
   signatures. *)
let edited_signatures_gen =
  let open QCheck2.Gen in
  let* () = pure () in
  let c = Lazy.force Test_verify_memo.corpus in
  let* picks = Test_verify_memo.gen_picks c in
  let text =
    Printer.ops_to_string ~generic:true c.ctx [ Test_verify_memo.build c picks ]
  in
  let spans = signature_spans text in
  let edit_in_span =
    let* k = int_bound (Array.length spans - 1) in
    let start, stop = spans.(k) in
    let* at = int_range start (max start (stop - 1)) in
    let* e = edit_gen in
    pure
      (match e with
      | Replace (_, ch) -> Replace (at, ch)
      | Delete _ -> Delete at
      | Insert (_, ch) -> Insert (at, ch))
  in
  let* edits =
    if Array.length spans = 0 then pure [] else list_size (int_range 1 4) edit_in_span
  in
  pure (text, List.fold_left apply_edit text edits)

let edited_signatures_match_cold =
  QCheck2.Test.make
    ~name:"edited signatures parse like cold ones after a warm-up"
    ~count:150 ~print:(fun (_, src) -> Printf.sprintf "%S" src)
    edited_signatures_gen (fun (text, src) ->
      let c = Lazy.force Test_verify_memo.corpus in
      (* the unedited signatures are in the memo when the edited ones are
         probed *)
      ignore (parse_view c.ctx text);
      match cold_warm_agree c.ctx src with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* ---------------------------------------------------------------- *)
(* Unit tests                                                        *)
(* ---------------------------------------------------------------- *)

let check_printed what expected v =
  Alcotest.(check string) what expected v.printed

let whitespace_before_params () =
  let ctx = Context.create () in
  let v = agree ctx {|%0 = "t.x"() : () -> !d.t <f32>|} in
  check_printed "parsed as !d.t<f32>"
    "%0 = \"t.x\"() : () -> (!d.t<f32>)" v

let closers_in_strings_and_function_types () =
  let ctx = Context.create () in
  let ty =
    {|!d.t<"a>b", "<", "c->d", (i32) -> f32, (i1, f32) -> (!d.u<i8>)>|}
  in
  let src =
    Printf.sprintf "%%0 = \"t.x\"() : () -> %s\n%%1 = \"t.y\"(%%0) : (%s) -> i1"
      ty ty
  in
  let v = agree ctx src in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  ignore (agree ctx (Printf.sprintf "\"t.z\"() : () -> (i8, %s)" ty));
  let again = parse_view ctx src in
  Alcotest.(check string) "memo hits print the same" v.printed again.printed

let spelling_across_newline () =
  let ctx = Context.create () in
  let v =
    agree ctx
      "%0 = \"t.x\"() : () -> !d.t<f32,\n\
      \  i32>\n\
       %1 = \"t.y\"(%0) : (!d.t<f32, i32>) -> i1 )"
  in
  Alcotest.(check (list string))
    "located after the type"
    [ "memo.mlir:3:41-42: error: at ')': expected an operation [78-79]" ]
    v.diags

let truncated_spellings () =
  let ctx = Context.create () in
  ignore (agree ctx {|%0 = "t.x"() : () -> !d.t<f32>|});
  let v = agree ctx {|%0 = "t.x"() : () -> !d.t<f32|} in
  Alcotest.(check bool) "EOF inside the spelling is an error" true
    (v.first_error <> None);
  let src = "%0 = \"t.x\"() : () -> !d.t<f32>\n" in
  let stop = String.rindex src '>' in
  let v = agree ~window:{ Sbuf.start = 0; stop; first_line = 1 } ctx src in
  Alcotest.(check bool) "a window end inside the spelling is an error" true
    (v.first_error <> None);
  Alcotest.(check (list string))
    "the error is at the window end"
    [ "memo.mlir:1:30: error: at '<eof>': expected '>' [29-29]" ]
    v.diags

let memoized_then_junk () =
  let ctx = Context.create () in
  ignore (agree ctx {|%0 = "t.x"() : () -> !d.t<f32>|});
  let v =
    agree ctx
      {|%0 = "t.x"() : () -> !d.t<f32>junk %1 = "t.y"() : () -> !d.t<f32>>|}
  in
  Alcotest.(check int) "both ops parse" 2 (List.length v.op_locs);
  Alcotest.(check (list string))
    "junk located right after each type"
    [
      "memo.mlir:1:31-35: error: at 'junk': expected an operation [30-34]";
      "memo.mlir:1:66-67: error: at '>': expected an operation [65-66]";
    ]
    v.diags

let lexer_errors_not_memoized () =
  let ctx = Context.create () in
  let src = {|%0 = "t.x"() : () -> !d.t<f32 ~ >|} in
  let v = agree ctx src in
  let expected =
    [ "memo.mlir:1:31: error: unexpected character '~' [30-30]" ]
  in
  Alcotest.(check (list string)) "the lexer error, once" expected v.diags;
  Alcotest.(check (list string))
    "reported again by a warm parse" expected (parse_view ctx src).diags

(* The scan stops at the first [>] after a [//], but the parse skips the
   comment and reads on into the next line: such a spelling must never
   be recorded. *)
let comment_inside_spelling () =
  let ctx = Context.create () in
  let v =
    agree ctx
      "%0 = \"t.x\"() : () -> !d.t<f32 //>\n\
       >\n\
       %1 = \"t.y\"(%0) : (!d.t<f32>) -> i1"
  in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  Alcotest.(check int) "both ops parse" 2 (List.length v.op_locs)

let distinct_names_within_caps () =
  let ctx = Context.create () in
  let n = 100_000 in
  let b = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    Printf.bprintf b "\"t.op%d\"() {k%d = \"s%d\"} : () -> !d.t%d<i%d>\n" i i i
      i (i + 1)
  done;
  let engine = Diag.Engine.create () in
  let ops =
    check_ok "parse"
      (Parser.parse_ops ~engine ctx (Buffer.contents b))
  in
  Alcotest.(check int) "every op" n (List.length ops);
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Diag.Engine.diagnostics engine));
  Alcotest.(check bool) "entries within the cap" true
    (Parser.name_table_entries () <= Parser.name_table_cap);
  Alcotest.(check string) "last op intact"
    (Printf.sprintf "%%0 = \"t.op%d\"() {k%d = \"s%d\"} : () -> (!d.t%d<i%d>)"
       (n - 1) (n - 1) (n - 1) (n - 1) n)
    (Printer.ops_to_string ~generic:true ctx [ List.nth ops (n - 1) ])

(* ---------------------------------------------------------------- *)
(* The signature memo                                                *)
(* ---------------------------------------------------------------- *)

let sig_hits () = fst (Parser.signature_memo_stats ())

(* Agree cold and warm, then the signature-memo hits of one more warm
   parse. *)
let warm_sig_hits ?window ctx src =
  let v = agree ?window ctx src in
  let hits = sig_hits () in
  let again = parse_view ?window ctx src in
  Alcotest.(check string) "a warm parse prints the same" v.printed again.printed;
  (v, sig_hits () - hits)

let bare_result_type () =
  let ctx = Context.create () in
  let v, hits =
    warm_sig_hits ctx
      "%0 = \"t.x\"() : () -> f32\n%1 = \"t.y\"(%0) : (f32) -> !d.t<i32>\n"
  in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  check_printed "both forms"
    "%0 = \"t.x\"() : () -> (f32)\n%1 = \"t.y\"(%0) : (f32) -> (!d.t<i32>)" v;
  (* two parses per view, fail-soft and fail-fast *)
  Alcotest.(check int) "both signatures hit" 4 hits

let signature_ends () =
  let ctx = Context.create () in
  let src =
    "%0 = \"t.x\"() : () -> f32 // a comment -> (i1)\n\
     %1 = \"t.x\"() : () -> (f32)   \t\n\
     %2 = \"t.x\"() : () -> f32"
  in
  let v, hits = warm_sig_hits ctx src in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  Alcotest.(check int) "a comment, blanks and EOF end a signature" 6 hits;
  (* a window ending inside what the whole source spells [f32x] *)
  let src = "%0 = \"t.x\"() : () -> f32x\n" in
  let window = { Sbuf.start = 0; stop = String.rindex src 'x'; first_line = 1 } in
  let v, hits = warm_sig_hits ~window ctx src in
  Alcotest.(check (list string)) "the window parses" [] v.diags;
  Alcotest.(check int) "the window end ends it" 2 hits;
  let v = agree ctx src in
  Alcotest.(check (list string))
    "the whole line is another span"
    [ "memo.mlir:1:22-26: error: at 'f32x': unknown builtin type 'f32x' [21-25]" ]
    v.diags

(* The third signature is one byte longer than the scan's 256-byte cap,
   which falls between its [i3] and [2]: the bytes up to the cap are the
   second signature, memoized, and must not be taken for it. *)
let signature_at_the_cap () =
  let ctx = Context.create () in
  let ty = Printf.sprintf "!d.t<\"%s\">" (String.make 240 'x') in
  let src =
    Printf.sprintf
      "%%p = \"t.p\"() : () -> %s\n\"t.x\"(%%p) : (%s) -> i3\n\
       %%r = \"t.y\"(%%p) : (%s) -> i32\n"
      ty ty ty
  in
  Alcotest.(check int) "the second signature fills the cap" 256
    (String.length (Printf.sprintf "(%s) -> i3" ty));
  let v = agree ctx src in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  check_printed "i32 stays i32"
    (Printf.sprintf
       "%%0 = \"t.p\"() : () -> (%s)\n%%1 = \"t.x\"(%%0) : (%s) -> (i3)\n\
        %%2 = \"t.y\"(%%0) : (%s) -> (i32)"
       ty ty ty)
    v

let arrow_in_string_parameter () =
  let ctx = Context.create () in
  let v, hits =
    warm_sig_hits ctx
      "%0 = \"t.x\"() : () -> !d.t<\"->\", \"a)->(b\">\n\
       %1 = \"t.y\"(%0) : (!d.t<\"->\", \"a)->(b\">) -> (!d.t<\"//\">)"
  in
  Alcotest.(check (list string)) "no diagnostics" [] v.diags;
  check_printed "strings kept"
    "%0 = \"t.x\"() : () -> (!d.t<\"->\", \"a)->(b\">)\n\
     %1 = \"t.y\"(%0) : (!d.t<\"->\", \"a)->(b\">) -> (!d.t<\"//\">)"
    v;
  Alcotest.(check int) "both signatures hit" 4 hits

let lexer_error_in_signature () =
  let ctx = Context.create () in
  let src = "%0 = \"t.x\"() : () -> (f32 ~)" in
  let v, hits = warm_sig_hits ctx src in
  Alcotest.(check (list string))
    "the lexer error, warm too"
    [ "memo.mlir:1:27: error: unexpected character '~' [26-26]" ]
    v.diags;
  Alcotest.(check int) "never memoized" 0 hits

(* ---------------------------------------------------------------- *)
(* The scope table                                                   *)
(* ---------------------------------------------------------------- *)

let parse_err ctx src =
  match Parser.parse_ops ~file:"memo.mlir" ctx src with
  | Ok _ -> Alcotest.failf "%S parsed" src
  | Error d -> Diag.to_string d

let prefix_and_dollar_names () =
  let ctx = Context.create () in
  let v =
    agree ctx
      "%1 = \"t.a\"() : () -> i32\n\
       %10 = \"t.b\"(%1) : (i32) -> i32\n\
       %1$x = \"t.c\"(%10, %1) : (i32, i32) -> i32\n\
       \"t.d\"(%1$x, %10, %1) : (i32, i32, i32) -> ()"
  in
  check_printed "each name its own value"
    "%0 = \"t.a\"() : () -> (i32)\n\
     %1 = \"t.b\"(%0) : (i32) -> (i32)\n\
     %2 = \"t.c\"(%1, %0) : (i32, i32) -> (i32)\n\
     \"t.d\"(%2, %1, %0) : (i32, i32, i32) -> ()"
    v;
  (* Forward uses of [%a], [%a1] .. [%a6] probe a table filled with longer
     names they are prefixes of ([%a10] .. [%a699]): none may be taken for
     one of them. *)
  let b = Buffer.create 16_384 in
  for i = 10 to 699 do
    Printf.bprintf b "%%a%d = \"t.long\"() : () -> i1\n" i
  done;
  let short = [ "a"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6" ] in
  List.iter (Printf.bprintf b "\"t.use\"(%%%s) : (i32) -> ()\n") short;
  List.iter (Printf.bprintf b "%%%s = \"t.short\"() : () -> i32\n") short;
  let ops =
    Array.of_list (check_ok "parse" (Parser.parse_ops ctx (Buffer.contents b)))
  in
  List.iteri
    (fun k name ->
      let use = ops.(690 + k) and def = ops.(697 + k) in
      if Graph.Op.operand use 0 != Graph.Op.result def 0 then
        Alcotest.failf "%%%s is not bound to its own definition" name)
    short

let operand (op : Graph.op) i = Graph.Op.operand op i

let distinct_names_past_growth () =
  let ctx = Context.create () in
  let n = 100_000 in
  let b = Buffer.create (n * 40) in
  Buffer.add_string b "%v0 = \"t.src\"() : () -> i32\n";
  for i = 1 to n - 1 do
    Printf.bprintf b "%%v%d = \"t.op\"(%%v%d) : (i32) -> i32\n" i (i - 1)
  done;
  Printf.bprintf b "\"t.use\"(%%v0, %%v%d, %%v%d) : (i32, i32, i32) -> ()\n"
    (n / 2) (n - 1);
  let ops = Array.of_list (check_ok "parse" (Parser.parse_ops ctx (Buffer.contents b))) in
  let result i = Graph.Op.result ops.(i) 0 in
  for i = 1 to n - 1 do
    if operand ops.(i) 0 != result (i - 1) then
      Alcotest.failf "op %d does not use op %d" i (i - 1)
  done;
  let use = ops.(n) in
  Alcotest.(check bool) "late uses bind the first, middle and last" true
    (operand use 0 == result 0
    && operand use 1 == result (n / 2)
    && operand use 2 == result (n - 1))

let forwards_across_growth () =
  let ctx = Context.create () in
  let n = 1_000 in
  let b = Buffer.create (n * 80) in
  for i = 0 to n - 1 do
    Printf.bprintf b "\"t.use\"(%%f%d) : (i32) -> ()\n" i
  done;
  for i = 0 to (4 * n) - 1 do
    Printf.bprintf b "%%g%d = \"t.other\"() : () -> i1\n" i
  done;
  for i = n - 1 downto 0 do
    Printf.bprintf b "%%f%d = \"t.def\"() : () -> i32\n" i
  done;
  let ops = Array.of_list (check_ok "parse" (Parser.parse_ops ctx (Buffer.contents b))) in
  for i = 0 to n - 1 do
    let def = ops.((5 * n) + (n - 1 - i)) in
    if operand ops.(i) 0 != Graph.Op.result def 0 then
      Alcotest.failf "the use of %%f%d is not bound to its definition" i
  done

let no_stale_binding_across_sessions () =
  let ctx = Context.create () in
  ignore
    (check_ok "first"
       (Parser.parse_ops ctx
          "%a = \"t.x\"() : () -> i32\n\
           \"t.r\"() ({\n^bb1(%b: i32):\n  \"t.br\"()[^bb1] : () -> ()\n}) : () -> ()"));
  Alcotest.(check string) "a name of the last session"
    "memo.mlir:1:9-11: error: use of undefined value %a"
    (parse_err ctx "\"t.use\"(%a) : (i32) -> ()");
  Alcotest.(check string) "a label of the last session"
    "memo.mlir:1:10-11: error: use of undefined block ^bb1"
    (parse_err ctx "\"t.r\"() ({\n  \"t.br\"()[^bb1] : () -> ()\n}) : () -> ()");
  (* two sessions alive on one domain: each keeps its own bindings *)
  let s1 =
    Parser.Stream.create ctx
      "%a = \"t.one\"() : () -> i32\n\"t.use\"(%a) : (i32) -> ()"
  in
  let first = check_ok "first op" (Parser.Stream.next s1) in
  let other =
    check_ok "second session"
      (Parser.parse_ops ctx "%a = \"t.two\"() : () -> i1\n\"t.use\"(%a) : (i1) -> ()")
  in
  let use = check_ok "use" (Parser.Stream.next s1) in
  match (first, use, other) with
  | Some def, Some use, [ _; use2 ] ->
      Alcotest.(check bool) "the first session's %a" true
        (operand use 0 == Graph.Op.result def 0);
      Alcotest.(check string) "the second session's %a" "t.two"
        (match Graph.Value.defining_op (operand use2 0) with
        | Some op -> op.op_name
        | None -> "-")
  | _ -> Alcotest.fail "unexpected ops"

(* MLIR's scoping: a name is defined once per visible scope, a region's
   names die with it, sibling regions may reuse one, and a forward
   reference made inside a region is still open after it. *)
let redefinition () =
  let ctx = Context.create () in
  let src =
    "%0 = \"test.source\"() : () -> (f32)\n\
     %0 = \"test.source\"() : () -> (f32)\n\
     %1 = \"arith.addf\"(%0, %0) : (f32, f32) -> f32"
  in
  let v = agree ctx src in
  let expected = "memo.mlir:2:1-3: error: redefinition of SSA value '%0' [35-37]" in
  Alcotest.(check (list string)) "fail-soft" [ expected ] v.diags;
  Alcotest.(check (option string)) "fail-fast" (Some expected) v.first_error;
  let v =
    agree ctx
      "%a = \"t.x\"() : () -> i32\n\
       \"t.r\"() ({\n^bb0(%a: i32):\n  \"t.y\"() : () -> ()\n}) : () -> ()\n\
       \"t.z\"(%b) : (i32) -> ()"
  in
  (* recovery skips the rest of the abandoned op and resumes at the next *)
  Alcotest.(check (list string)) "a block argument inside a region"
    [
      "memo.mlir:3:6-8: error: redefinition of SSA value '%a' [41-43]";
      "memo.mlir:6:7-9: error: use of undefined value %b [92-94]";
    ]
    v.diags

let region_scopes () =
  let ctx = Context.create () in
  let v =
    agree ctx
      "\"t.r\"() ({\n\
       ^bb0(%arg0: f32):\n\
      \  \"t.use\"(%arg0) : (f32) -> ()\n\
       }, {\n\
       ^bb0(%arg0: i32):\n\
      \  \"t.use\"(%arg0) : (i32) -> ()\n\
       }) : () -> ()"
  in
  Alcotest.(check (list string)) "siblings reuse %arg0" [] v.diags;
  let v =
    agree ctx
      "\"t.r\"() ({\n\
      \  %in = \"t.x\"() : () -> f32\n\
       }) : () -> ()\n\
       \"test.use\"(%in) : (f32) -> ()"
  in
  Alcotest.(check (list string)) "a name does not escape its region"
    [ "memo.mlir:4:12-15: error: use of undefined value %in [64-67]" ] v.diags;
  let v =
    agree ctx
      "\"t.r\"() ({\n\
      \  \"t.use\"(%late) : (f32) -> ()\n\
       }) : () -> ()\n\
       %late = \"t.x\"() : () -> f32"
  in
  Alcotest.(check (list string)) "a forward reference outlives its region" []
    v.diags;
  let v =
    agree ctx
      "\"t.r\"() ({\n\
       ^bb1:\n\
      \  \"t.r\"() ({\n\
       ^bb1:\n\
      \    \"t.br\"()[^bb1] : () -> ()\n\
      \  }) : () -> ()\n\
      \  \"t.br\"()[^bb1] : () -> ()\n\
       }) : () -> ()"
  in
  Alcotest.(check (list string)) "nested regions each have their ^bb1" []
    v.diags;
  let v =
    agree ctx
      "\"t.r\"() ({\n\
       ^bb1:\n\
      \  \"t.r\"() ({\n\
      \    \"t.br\"()[^bb1] : () -> ()\n\
      \  }) : () -> ()\n\
       }) : () -> ()"
  in
  Alcotest.(check (list string)) "a label is not visible in a nested region"
    [ "memo.mlir:3:12-13: error: use of undefined block ^bb1 [28-29]" ]
    v.diags

let duplicate_attribute () =
  let ctx = Context.create () in
  let v = agree ctx "\"test.op\"() {a = 1 : i32, a = 2 : i32} : () -> ()" in
  let expected =
    "memo.mlir:1:13-14: error: duplicate key 'a' in dictionary attribute [12-13]"
  in
  Alcotest.(check (list string)) "fail-soft" [ expected ] v.diags;
  Alcotest.(check (option string)) "fail-fast" (Some expected) v.first_error;
  (* an error inside a nested dictionary abandons the whole op, whatever
     braces a string or a comment in it holds *)
  let v =
    agree ctx
      "\"t.a\"() {d = {s = \"{\", // }\n\
      \  k = 1 : i32, k = 2 : i32}} : () -> ()\n\
       \"t.b\"(%u) : (i32) -> ()"
  in
  Alcotest.(check (list string)) "recovery resumes at the next op"
    [
      "memo.mlir:1:14-15: error: duplicate key 'k' in dictionary attribute \
       [13-14]";
      "memo.mlir:3:7-9: error: use of undefined value %u [74-76]";
    ]
    v.diags

let suite =
  [
    QCheck_alcotest.to_alcotest warm_matches_cold;
    tc "!d.t <f32> with whitespace" whitespace_before_params;
    tc "closers inside strings and function types"
      closers_in_strings_and_function_types;
    tc "a spelling across a newline" spelling_across_newline;
    tc "spellings truncated at EOF and window end" truncated_spellings;
    tc "a memoized spelling followed by junk" memoized_then_junk;
    tc "lexer errors are located and never memoized" lexer_errors_not_memoized;
    tc "a comment inside a spelling" comment_inside_spelling;
    tc "10^5 distinct names stay within the caps" distinct_names_within_caps;
    QCheck_alcotest.to_alcotest edited_signatures_match_cold;
    tc "signature: a bare result type" bare_result_type;
    tc "signature: ended by a comment, blanks, EOF or the window"
      signature_ends;
    tc "signature: a scan stopped by its cap is never a hit"
      signature_at_the_cap;
    tc "signature: -> inside a string parameter" arrow_in_string_parameter;
    tc "signature: a lexer error inside is never memoized"
      lexer_error_in_signature;
    tc "scope: prefix names and names with $" prefix_and_dollar_names;
    tc "scope: 10^5 distinct names past growth" distinct_names_past_growth;
    tc "scope: forward references across growth" forwards_across_growth;
    tc "scope: no stale binding across sessions"
      no_stale_binding_across_sessions;
    tc "scope: redefinition of an SSA value" redefinition;
    tc "scope: regions scope their names" region_scopes;
    tc "duplicate attribute names" duplicate_attribute;
  ]
