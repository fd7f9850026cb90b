(* Writes bundled.ml: the bundled dialects resolved from their IRDL text
   through the text frontend, then encoded with
   [Bytecode.Write.dialects_to_string], one escaped string literal each.
   Any failure fails the build. *)

let pack what dls =
  match
    Result.bind dls Irdl_bytecode.Bytecode.Write.dialects_to_string
  with
  | Ok blob -> blob
  | Error d ->
      Fmt.epr "gen_bundled: %s: %a@." what Irdl_support.Diag.pp d;
      exit 1

let () =
  let corpus = pack "corpus" (Irdl_dialects.Corpus.analyze ()) in
  let cmath =
    pack "cmath" (Irdl_core.Irdl.analyze Irdl_dialects.Cmath.source)
  in
  print_string
    "(* Generated at build time by gen_bundled.exe from the IRDL text of \
     Irdl_dialects.Corpus and Irdl_dialects.Cmath. Do not edit. *)\n";
  Printf.printf "let corpus = %S\n" corpus;
  Printf.printf "let cmath = %S\n" cmath
