(** The bundled dialect packs (lib/bundled): they must hold exactly what
    the IRDL text resolves to, and loading them must stay cheap. *)

open Util
module Bytecode = Irdl_bytecode.Bytecode
module Frontend = Irdl_bytecode.Frontend

let text_corpus () = check_ok "analyze corpus" (Irdl_dialects.Corpus.analyze ())

let text_cmath () =
  check_ok "analyze cmath" (Irdl_core.Irdl.analyze Irdl_dialects.Cmath.source)

(* The pack is a fresh encoding of the text, byte for byte, and decodes to
   the dialects the text resolves to. *)
let pack_matches_text () =
  List.iter
    (fun (what, pack, dls) ->
      Alcotest.(check bool)
        (what ^ ": pack = encoding of the text")
        true
        (pack = check_ok what (Bytecode.Write.dialects_to_string dls));
      let decoded = check_ok what (read_pack pack) in
      Alcotest.(check (list string))
        (what ^ ": dialect names")
        (List.map (fun (d : Irdl_core.Resolve.dialect) -> d.dl_name) dls)
        (List.map (fun (d : Irdl_core.Resolve.dialect) -> d.dl_name) decoded);
      List.iter2
        (fun d1 d2 ->
          if not (dialect_eq d1 d2) then
            Alcotest.failf "%s: dialect %s differs from its text" what
              d1.Irdl_core.Resolve.dl_name)
        dls decoded)
    [
      ("corpus", Bundled.corpus, text_corpus ());
      ("cmath", Bundled.cmath, text_cmath ());
    ]

(* Minor words [load] allocates into a fresh context on a fresh domain, so
   the domain-local uniquer and verify-cache shards start cold, as they do
   in a new process. *)
let cold_minor_words load =
  Domain.join
    (Domain.spawn (fun () ->
         let ctx = Irdl_ir.Context.create () in
         let before = Gc.minor_words () in
         load ctx;
         Gc.minor_words () -. before))

let load_pack ctx =
  ignore
    (check_ok "load corpus pack"
       (Frontend.load_dialects ctx (Frontend.Source.Binary Bundled.corpus)))

let load_text ctx =
  ignore (check_ok "load corpus text" (Irdl_dialects.Corpus.load_all ctx))

(* Reading, lifting and registering the corpus pack, measured at 413,232
   minor words (OCaml 5.1, 64-bit, dev profile; the text path,
   Corpus.load_all, read 1,158,554). The count is exact on repeat, so the
   bound is the measured value plus 5%; a change that lowers the count
   lowers it. *)
let pack_budget = 413_232. *. 1.05

let load_budget () =
  let words = cold_minor_words load_pack in
  Alcotest.(check (float 0.)) "the count repeats exactly" words
    (cold_minor_words load_pack);
  if words > pack_budget then
    Alcotest.failf "corpus pack load: %.0f minor words, budget %.0f" words
      pack_budget;
  let text = cold_minor_words load_text in
  if words >= text /. 2. then
    Alcotest.failf
      "corpus pack load: %.0f minor words, not below half the text path's %.0f"
      words text

let suite =
  [
    tc "packs are the encoding of the IRDL text" pack_matches_text;
    tc "work budget: corpus pack load" load_budget;
  ]
