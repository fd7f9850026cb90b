(** Work budgets: minor words per op for bytecode decode and encode,
    generic print and one warm server request, on a fixed 2,000-op
    module. Each count is exact on repeat, so each bound is the measured
    value plus 5%; a change that lowers a count lowers its bound. *)

open Util
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Printer = Irdl_ir.Printer
module Verifier = Irdl_ir.Verifier
module Bytecode = Irdl_bytecode.Bytecode
module Server = Irdl_server.Server

let n_ops = 2_000

(* [test.source] placeholders over 39 result types, cmath.mul and
   cmath.norm consuming the complex ones: the shape of a generated
   benchmark module. Every op is valid, and every operand is defined
   earlier, so any prefix is a module too. *)
let module_ops () =
  let tys =
    Array.append
      [| complex_f32; complex_f64; Attr.f32; Attr.f64 |]
      (Array.init 35 (fun w -> Attr.integer (w + 1)))
  in
  let ops = ref [] and n = ref 0 in
  let add op =
    ops := op :: !ops;
    incr n;
    Graph.Op.result op 0
  in
  let source ty = add (Graph.Op.create ~result_tys:[ ty ] "test.source") in
  let i = ref 0 in
  while !n < n_ops do
    ignore (source tys.(!i * 17 mod 39));
    if !i mod 3 = 0 then begin
      let c, e =
        if !i mod 2 = 0 then (complex_f32, Attr.f32) else (complex_f64, Attr.f64)
      in
      let a = source c and b = source c in
      let m = add (Graph.Op.create ~operands:[ a; b ] ~result_tys:[ c ] "cmath.mul") in
      ignore (add (Graph.Op.create ~operands:[ m ] ~result_tys:[ e ] "cmath.norm"))
    end;
    incr i
  done;
  List.filteri (fun i _ -> i < n_ops) (List.rev !ops)

let inputs =
  lazy
    (let ctx = cmath_ctx () in
     let ops = module_ops () in
     check_ok "valid module"
       (match Verifier.verify_ops_all ctx ops with [] -> Ok () | d :: _ -> Error d);
     ( check_ok "encode" (Bytecode.Write.module_to_string ops),
       Printer.ops_to_string ~generic:true ctx ops ))

(* Minor words per op of [measure] on a fresh domain, so the uniquer and
   verify-cache shards start cold as in a new process. [measure ctx]
   returns the words of the part it times. The first decode of a process
   counts fewer words than the ones after it, so a budget measures after
   one run that it throws away. *)
let words_per_op measure =
  Domain.join
    (Domain.spawn (fun () ->
         let ctx = cmath_ctx () in
         Context.freeze ctx;
         measure ctx /. float_of_int n_ops))

let counted f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

let decode ctx =
  let bc, _ = Lazy.force inputs in
  let words, ops = counted (fun () -> Bytecode.read_module ctx bc) in
  Alcotest.(check int) "decoded ops" n_ops (List.length (check_ok "decode" ops));
  words

(* As a one-shot run: decode, verify, then print in generic form. *)
let print ctx =
  let bc, text = Lazy.force inputs in
  let ops = check_ok "decode" (Bytecode.read_module ctx bc) in
  Alcotest.(check int) "valid" 0 (List.length (Verifier.verify_ops_all ctx ops));
  let words, out = counted (fun () -> Printer.ops_to_string ~generic:true ctx ops) in
  Alcotest.(check bool) "printed the module" true (String.equal out text);
  words

(* As an [--emit-bytecode] run on a loaded module: decode, verify, then
   encode; the bytes are the ones decoded. *)
let encode ctx =
  let bc, _ = Lazy.force inputs in
  let ops = check_ok "decode" (Bytecode.read_module ctx bc) in
  Alcotest.(check int) "valid" 0 (List.length (Verifier.verify_ops_all ctx ops));
  let words, out = counted (fun () -> Bytecode.Write.module_to_string ops) in
  Alcotest.(check bool) "re-emitted the module" true
    (String.equal (check_ok "encode" out) bc);
  words

(* The second of two identical print requests: parse, verify, print. *)
let warm_request ctx =
  let _, text = Lazy.force inputs in
  let rq =
    { Server.rq_id = "1"; rq_kind = Server.Print; rq_file = "budget.mlir";
      rq_limits = Irdl_support.Limits.unlimited; rq_payload = text }
  in
  let cfg = { Server.default_config with generic = true } in
  ignore (Server.handle ctx cfg rq);
  let words, rs = counted (fun () -> Server.handle ctx cfg rq) in
  Alcotest.(check string) "answered ok" "ok" (Server.status_to_string rs.rs_status);
  Alcotest.(check bool) "echoed the module" true
    (String.equal rs.rs_output (text ^ "\n"));
  words

(* [measured] is the count at the time the budget was set, on OCaml 5,
   64-bit, dev profile. *)
let budget what measure measured =
  tc ("work budget: " ^ what) (fun () ->
      ignore (words_per_op measure);
      let words = words_per_op measure in
      Alcotest.(check (float 0.)) "the count repeats exactly" words
        (words_per_op measure);
      let bound = measured *. 1.05 in
      if words > bound then
        Alcotest.failf "%s: %.2f minor words per op, budget %.2f" what words
          bound)

let suite =
  [
    budget "bytecode decode" decode 44.761;
    budget "bytecode encode" encode 1.263;
    budget "generic print" print 2.251;
    budget "one warm server request" warm_request 52.264;
  ]
