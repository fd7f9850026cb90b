(** The analysis corpus: the 28 MLIR dialects of Table 1, written in IRDL.

    [history] records per-dialect operation-count checkpoints
    ([(YYYY-MM, cumulative ops)]) standing in for the MLIR git history behind
    Figure 3 (see DESIGN.md, substitutions): dialects absent from a month
    have no checkpoint yet; the final 2022-01 value is taken from the parsed
    corpus itself, so the curve's endpoint is measured, not recorded. *)

type entry = {
  name : string;
  description : string;
  source : string;
  history : (string * int) list;
      (** Cumulative op-count checkpoints, oldest first, strictly before the
          analysis date. *)
}

let all : entry list =
  [
    { name = Affine.name; description = Affine.description;
      source = Affine.source;
      history = [ ("2020-04", 12); ("2021-01", 13) ] };
    { name = Amx.name; description = Amx.description; source = Amx.source;
      history = [ ("2021-03", 10) ] };
    { name = Arith.name; description = Arith.description;
      source = Arith.source;
      history = [ ("2021-03", 35) ] };
    { name = Arm_sve.name; description = Arm_sve.description;
      source = Arm_sve.source;
      history = [ ("2020-04", 10); ("2021-02", 20) ] };
    { name = Arm_neon.name; description = Arm_neon.description;
      source = Arm_neon.source;
      history = [ ("2020-04", 3) ] };
    { name = Async.name; description = Async.description;
      source = Async.source;
      history = [ ("2020-04", 8); ("2021-04", 18) ] };
    { name = Builtin.name; description = Builtin.description;
      source = Builtin.source;
      history = [ ("2020-04", 3) ] };
    { name = Complex_dialect.name; description = Complex_dialect.description;
      source = Complex_dialect.source;
      history = [ ("2020-04", 8); ("2021-06", 15) ] };
    { name = Emitc.name; description = Emitc.description;
      source = Emitc.source;
      history = [ ("2021-04", 4) ] };
    { name = Gpu.name; description = Gpu.description; source = Gpu.source;
      history = [ ("2020-04", 18); ("2021-01", 24) ] };
    { name = Linalg.name; description = Linalg.description;
      source = Linalg.source;
      history = [ ("2020-04", 7) ] };
    { name = Llvm.name; description = Llvm.description; source = Llvm.source;
      history = [ ("2020-04", 95); ("2020-10", 105); ("2021-06", 120) ] };
    { name = Math.name; description = Math.description; source = Math.source;
      history = [ ("2021-01", 16) ] };
    { name = Memref.name; description = Memref.description;
      source = Memref.source;
      history = [ ("2021-02", 20) ] };
    { name = Nvvm.name; description = Nvvm.description; source = Nvvm.source;
      history = [ ("2020-04", 15); ("2021-08", 20) ] };
    { name = Pdl.name; description = Pdl.description; source = Pdl.source;
      history = [ ("2020-04", 8); ("2020-10", 12) ] };
    { name = Pdl_interp.name; description = Pdl_interp.description;
      source = Pdl_interp.source;
      history = [ ("2020-10", 25); ("2021-06", 30) ] };
    { name = Quant.name; description = Quant.description;
      source = Quant.source;
      history = [ ("2020-04", 10) ] };
    { name = Rocdl.name; description = Rocdl.description;
      source = Rocdl.source;
      history = [ ("2020-04", 15); ("2021-03", 25) ] };
    { name = Scf.name; description = Scf.description; source = Scf.source;
      history = [ ("2020-04", 7); ("2021-05", 9) ] };
    { name = Shape.name; description = Shape.description;
      source = Shape.source;
      history = [ ("2020-04", 20); ("2020-09", 30) ] };
    { name = Sparse_tensor.name; description = Sparse_tensor.description;
      source = Sparse_tensor.source;
      history = [ ("2021-03", 4) ] };
    { name = Spv.name; description = Spv.description; source = Spv.source;
      history = [ ("2020-04", 105); ("2020-12", 130); ("2021-07", 160) ] };
    { name = Std.name; description = Std.description; source = Std.source;
      (* std shrank as arith/math/memref/tensor were split out of it. *)
      history = [ ("2020-04", 75); ("2021-03", 60); ("2021-10", 50) ] };
    { name = Tensor.name; description = Tensor.description;
      source = Tensor.source;
      history = [ ("2020-12", 8) ] };
    { name = Tosa.name; description = Tosa.description; source = Tosa.source;
      history = [ ("2020-11", 55) ] };
    { name = Vector.name; description = Vector.description;
      source = Vector.source;
      history = [ ("2020-04", 25); ("2021-02", 30) ] };
    { name = X86vector.name; description = X86vector.description;
      source = X86vector.source;
      history = [ ("2021-05", 10) ] };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

(** Parse and resolve the full corpus (no registration). *)
let analyze () : (Irdl_core.Resolve.dialect list, Irdl_support.Diag.t) result
    =
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun dls ->
          match Irdl_core.Irdl.analyze ~file:e.name e.source with
          | Ok [ dl ] -> Ok (dls @ [ dl ])
          | Ok _ ->
              Irdl_support.Diag.errorf
                "corpus entry %s defines more than one dialect" e.name
          | Error d -> Error d))
    (Ok []) all

(** Parse, resolve and register the full corpus into one context. *)
let load_all ?native (ctx : Irdl_ir.Context.t) =
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun dls ->
          Result.map
            (fun dl -> dls @ [ dl ])
            (Irdl_core.Irdl.load_one ?native ~file:e.name ctx
               e.source)))
    (Ok []) all
