(** The public facade of the IRDL implementation.

    Typical use:

    {[
      let ctx = Irdl_ir.Context.create () in
      match Irdl_core.Irdl.load ctx source with
      | Ok dialects -> (* cmath &co are now registered; parse & verify IR *)
      | Error diag -> prerr_endline (Irdl_support.Diag.to_string diag)
    ]} *)

open Irdl_support

(** Parse IRDL source into ASTs. *)
let parse = Parser.parse_file

(** Parse and resolve, every error emitted to [engine]: the dialects that
    resolved. *)
let read ?file ~engine src =
  Parser.parse_file ?file ~engine src
  |> Result.value ~default:[]
  |> List.filter_map (fun ast ->
         Result.to_option (Resolve.resolve_dialect ~engine ast))

(** The one load path: [read] dialects on the engine, then register each
    while the engine's error cap is not reached, every error emitted to
    the engine. Without an engine the cap is one error, so nothing is
    registered once reading or a registration failed, and the first error
    is returned. *)
let load_with ?native ?engine ctx read =
  let engine, result = Diag.Engine.fail_fast engine in
  let dls = read engine in
  List.iter
    (fun dl ->
      if not (Diag.Engine.limit_reached engine) then
        List.iter (Diag.Engine.emit engine)
          (Registration.register_collect ?native ctx dl))
    dls;
  result (Ok dls)

(** Parse, resolve and register every dialect in [src] into [ctx]. Returns
    the resolved dialects for introspection. *)
let load ?native ?file ctx src =
  load_with ?native ctx (fun engine -> read ?file ~engine src)

(** {!load} on [engine]: a dialect file with three mistakes reports all
    three in one run, and its good definitions still work. *)
let load_collect ?native ?file ~engine ctx src =
  load_with ?native ~engine ctx (fun engine -> read ?file ~engine src)
  |> Result.value ~default:[]

(** [load] for sources containing exactly one dialect. *)
let load_one ?native ?file ctx src : (Resolve.dialect, Diag.t) result
    =
  match load ?native ?file ctx src with
  | Error _ as e -> e
  | Ok [ dl ] -> Ok dl
  | Ok dls ->
      Diag.errorf "expected exactly one dialect definition, found %d"
        (List.length dls)

(** Parse and resolve without registering (used by the analysis pipeline). *)
let analyze ?file src : (Resolve.dialect list, Diag.t) result =
  let engine, result = Diag.Engine.fail_fast None in
  result (Ok (read ?file ~engine src))
