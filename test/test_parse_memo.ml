(** Differential tests for the parser's per-domain name table and
    type-spelling memo: a parse with warm tables must show exactly what a
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
  diags : string list;  (** fail-soft *)
  first_error : string option;  (** fail-fast *)
}

(* Everything a parse of [src] shows, fail-soft and fail-fast. *)
let parse_view ?window ctx src =
  let engine = Diag.Engine.create () in
  let ops =
    match Parser.parse_ops ~file:"memo.mlir" ~engine ?window ctx src with
    | Ok ops -> ops
    | Error _ -> Alcotest.fail "a fail-soft parse returned Error"
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
  Printf.sprintf "printed:\n%s\nop locs: %s\ndiags:\n%s\nfail-fast: %s"
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

let warm_matches_cold =
  QCheck2.Test.make ~name:"warm tables parse like cold ones" ~count:150
    ~print:(Printf.sprintf "%S") module_gen (fun src ->
      let c = Lazy.force Test_verify_memo.corpus in
      match cold_warm_agree c.ctx src with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* ---------------------------------------------------------------- *)
(* Unit tests                                                        *)
(* ---------------------------------------------------------------- *)

let memo_hits () = fst (Parser.type_memo_stats ())

let check_printed what expected v =
  Alcotest.(check string) what expected v.printed

let whitespace_before_params () =
  let ctx = Context.create () in
  let v = agree ctx {|%0 = "t.x"() : () -> !d.t <f32>|} in
  check_printed "parsed as !d.t<f32>"
    "%0 = \"t.x\"() : () -> (!d.t<f32>)" v;
  let hits = memo_hits () in
  ignore (parse_view ctx {|%0 = "t.x"() : () -> !d.t <f32>|});
  Alcotest.(check int) "no memo probe with a space before <" hits (memo_hits ())

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
  let hits = memo_hits () in
  ignore (parse_view ctx src);
  Alcotest.(check bool) "a warm parse hits the memo" true (memo_hits () > hits);
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
  ]
