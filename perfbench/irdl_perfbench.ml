(* The benchmark's OCaml tool.

   irdl_perfbench info
     prints the OCaml version and Domain.recommended_domain_count as JSON.
   irdl_perfbench gen WORKLOAD SEED DIR
     writes the seeded inputs of one workload (and inputs.json, their
     sizes) into DIR.
   irdl_perfbench trace WORKLOAD DIR JOBS (traced|plain) OUT
     replays the workload in process on DIR's inputs, with or without
     spans, and writes its wall time, per-layer metrics and the problems
     its checks found to OUT; the traced mode also writes DIR/trace.json.
   irdl_perfbench side DIR
     times a streaming text parse of DIR/module.mlir and the bytecode
     encoding of the parsed module. *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "info" ] ->
      Printf.printf "{\"ocaml_version\": %S, \"recommended_domain_count\": %d}\n"
        Sys.ocaml_version (Domain.recommended_domain_count ())
  | [ "gen"; workload; seed; dir ] ->
      Gen.run ~workload ~seed:(int_of_string seed) ~dir
  | [ "trace"; workload; dir; jobs; mode; out ] ->
      Traced.run ~workload ~dir ~jobs:(int_of_string jobs)
        ~traced:(mode = "traced") ~out
  | [ "side"; dir ] -> Traced.side ~dir
  | _ ->
      prerr_endline
        "usage: irdl_perfbench (info | gen WORKLOAD SEED DIR | trace WORKLOAD \
         DIR JOBS (traced|plain) OUT | side DIR)";
      exit 2
