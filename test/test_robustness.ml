(** Robustness properties: no reader entry point may escape with anything
    but a diagnostic, whatever the input, and each reader called without
    an engine answers with the first error of its run on one. There is
    one property per reader and generator, and it checks both. *)

open QCheck2.Gen
open Util
module Diag = Irdl_support.Diag

let printable_gen = string_size ~gen:printable (int_range 0 120)

(* Strings biased toward the parsers' own token vocabulary: plain random
   printables rarely get past the first token. *)
let token_soup_gen =
  let frag =
    oneofl
      [ "Dialect"; "Operation"; "Type"; "Operands"; "("; ")"; "{"; "}"; "<";
        ">"; "!f32"; "#a"; "$x"; ":"; ","; "="; "["; "]"; "\"s\""; "42"; "-";
        "%v"; "^bb"; "@f"; "d.op"; "Variadic"; "AnyOf"; "->"; "//c\n"; " " ]
  in
  let* frags = list_size (int_range 0 40) frag in
  return (String.concat "" frags)

(* Raw bytes, the full 0-255 range: embedded NULs, broken UTF-8, control
   characters. *)
let bytes_gen = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 120)

(* Point mutations of [s]: valid-looking input that goes wrong somewhere
   in the middle — the profile recovery must survive. *)
let mutate s =
  let n = String.length s in
  let* edits = list_size (int_range 1 4) (pair (int_range 0 (n - 1)) char) in
  let b = Bytes.of_string s in
  List.iter (fun (i, c) -> Bytes.set b i c) edits;
  return (Bytes.to_string b)

(* Real IRDL sources, mutated. *)
let mutated_corpus_gen =
  let* entry = oneofl Irdl_dialects.Corpus.all in
  mutate entry.Irdl_dialects.Corpus.source

(* Real IRDL sources cut at a random offset: most cuts end inside an open
   dialect body, which point mutations never do. *)
let truncated_corpus_gen =
  let* entry = oneofl Irdl_dialects.Corpus.all in
  let src = entry.Irdl_dialects.Corpus.source in
  let* cut = int_range 0 (String.length src - 1) in
  return (String.sub src 0 cut)

(* The dialects a mutated corpus source parses to, one of them picked. *)
let mutated_ast_gen =
  let* src = mutated_corpus_gen in
  let engine = Diag.Engine.create () in
  match Irdl_core.Parser.parse_file ~engine src with
  | Ok (_ :: _ as asts) -> oneofl asts
  | Ok [] | Error _ ->
      return
        { Irdl_core.Ast.d_name = "none"; d_items = [];
          d_loc = Irdl_support.Loc.unknown }

(* A bytecode module with regions, block arguments, successors and a
   forward reference, mutated. *)
let mutated_blob_gen =
  let src =
    "%a = \"t.const\"() {v = 1 : i32} : () -> i32\n\
     \"t.use\"(%later) : (i32) -> ()\n\
     %later = \"t.add\"(%a, %a) : (i32, i32) -> i32\n\
     \"t.region\"() ({\n\
     ^bb0(%x: i32):\n\
    \  \"t.br\"() [^bb1] : () -> ()\n\
     ^bb1:\n\
    \  \"t.ret\"(%x) : (i32) -> ()\n\
     }) : () -> ()\n"
  in
  let ctx = Irdl_ir.Context.create () in
  let ops = check_ok "parse" (Irdl_ir.Parser.parse_ops ctx src) in
  mutate (check_ok "emit" (Irdl_bytecode.Bytecode.Write.module_to_string ops))

(** [first_error_agrees run src]: [run ?engine src] raises nothing with
    or without an engine, and without one it returns [Error d] exactly
    when the run on an engine emitted an error, [d] the first one. Every
    diagnostic emitted has a message. *)
let first_error_agrees (run : ?engine:Diag.Engine.t -> 'a -> ('b, Diag.t) result)
    src =
  let engine = Diag.Engine.create () in
  match (run ~engine src, run src) with
  | exception e -> Error ("raised " ^ Printexc.to_string e)
  | _, without -> (
      let diags = Diag.Engine.diagnostics engine in
      let first =
        List.find_opt (fun (d : Diag.t) -> d.severity = Diag.Error) diags
      in
      if List.exists (fun (d : Diag.t) -> d.message = "") diags then
        Error "a diagnostic without a message"
      else
        match (first, without) with
        | None, Ok _ -> Ok ()
        | Some d, Error d' when d = d' -> Ok ()
        | Some d, Error d' ->
            Error
              (Printf.sprintf "first error %S, without an engine %S"
                 (Diag.to_string d) (Diag.to_string d'))
        | Some d, Ok _ ->
            Error
              (Printf.sprintf "first error %S, without an engine Ok"
                 (Diag.to_string d))
        | None, Error d' ->
            Error
              (Printf.sprintf "no error, without an engine %S"
                 (Diag.to_string d')))

let agreement ?print ?(count = 500) name run gen =
  QCheck2.Test.make ~name ~count ?print gen (fun src ->
      match first_error_agrees run src with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* The readers, each with an optional engine. *)

let ir_text ?engine src =
  Irdl_ir.Parser.parse_ops ?engine (Irdl_ir.Context.create ()) src

let bytecode_module ?engine blob =
  Irdl_bytecode.Bytecode.read_module ?engine (Irdl_ir.Context.create ()) blob

let irdl_parse ?engine src = Irdl_core.Parser.parse_file ?engine src
let resolve ?engine ast = Irdl_core.Resolve.resolve_dialect ?engine ast

let load ?engine src =
  let ctx = Irdl_ir.Context.create () in
  match engine with
  | None -> Irdl_core.Irdl.load ctx src
  | Some engine -> Ok (Irdl_core.Irdl.load_collect ~engine ctx src)

let str = Printf.sprintf "%S"

let pattern_parser_total =
  QCheck2.Test.make ~name:"pattern parser total" ~count:500 token_soup_gen
    (fun src ->
      match
        Irdl_rewrite.Textual.parse_patterns (Irdl_ir.Context.create ()) src
      with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* Verification never raises either, even on badly-shaped ops. *)
let verify_total () =
  let ctx = cmath_ctx () in
  let open Irdl_ir in
  let detached_with_everything =
    Graph.Op.create
      ~operands:
        [ Graph.Op.result (Graph.Op.create ~result_tys:[ Attr.None_ty ] "t.v") 0 ]
      ~result_tys:[ Attr.None_ty ]
      ~attrs:[ ("operandSegmentSizes", Attr.string "not an array") ]
      ~regions:[ Graph.Region.create () ]
      "cmath.mul"
  in
  match Verifier.verify ctx detached_with_everything with
  | Ok () -> Alcotest.fail "should not verify"
  | Error _ -> ()

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      agreement ~print:str "IRDL parser total on noise" irdl_parse printable_gen;
      agreement ~print:str "IRDL parser total on token soup" irdl_parse
        token_soup_gen;
      agreement ~print:str "IR parser total on noise" ir_text printable_gen;
      agreement ~print:str "IR parser total on token soup" ir_text
        token_soup_gen;
      pattern_parser_total;
      agreement ~print:str "load (parse+resolve+register) total" load
        token_soup_gen;
    ]
  @ [ tc "verifier total on malformed ops" verify_total ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        agreement ~print:str "IRDL parser total on raw bytes" irdl_parse
          bytes_gen;
        agreement ~print:str "IR parser total on raw bytes" ir_text bytes_gen;
        agreement "load total on mutated corpus" load mutated_corpus_gen;
        agreement ~count:300 "IRDL collect total on mutated corpus" irdl_parse
          mutated_corpus_gen;
        agreement ~count:300 "resolve total on mutated corpus" resolve
          mutated_ast_gen;
        agreement ~print:str "bytecode reader total on mutated blobs"
          bytecode_module mutated_blob_gen;
        agreement ~count:300 "IRDL parser total on truncated corpus"
          irdl_parse truncated_corpus_gen;
        agreement ~count:300 "load total on truncated corpus" load
          truncated_corpus_gen;
      ]
