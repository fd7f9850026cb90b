(** The public facade of the IRDL implementation.

    {[
      let ctx = Irdl_ir.Context.create () in
      match Irdl_core.Irdl.load ctx source with
      | Ok dialects -> (* registered; parse & verify IR against them *)
      | Error diag -> prerr_endline (Irdl_support.Diag.to_string diag)
    ]} *)

open Irdl_support

val parse : ?file:string -> ?engine:Diag.Engine.t -> string ->
  (Ast.dialect list, Diag.t) result
(** Parse IRDL source into ASTs: {!Parser.parse_file}. *)

val read : ?file:string -> engine:Diag.Engine.t -> string ->
  Resolve.dialect list
(** Parse and resolve, errors emitted to [engine]: what resolved. *)

val load_with : ?native:Native.t -> ?engine:Diag.Engine.t ->
  Irdl_ir.Context.t -> (Diag.Engine.t -> Resolve.dialect list) ->
  (Resolve.dialect list, Diag.t) result
(** The one load path: register what a reader ({!read}, a bytecode pack)
    returns while the engine's error cap is not reached. Without [engine]
    the cap is one error, returned as [Error] ({!Diag.Engine.fail_fast}). *)

val load : ?native:Native.t -> ?file:string ->
  Irdl_ir.Context.t -> string -> (Resolve.dialect list, Diag.t) result
(** [load_with] over {!read}: nothing is registered after the first error. *)

val load_collect : ?native:Native.t -> ?file:string ->
  engine:Diag.Engine.t -> Irdl_ir.Context.t -> string -> Resolve.dialect list
(** {!load} on [engine]: one run reports every error in a source, and every
    definition that survives is registered. *)

val load_one : ?native:Native.t -> ?file:string ->
  Irdl_ir.Context.t -> string -> (Resolve.dialect, Diag.t) result
(** {!load} for sources containing exactly one dialect. *)

val analyze :
  ?file:string -> string -> (Resolve.dialect list, Diag.t) result
(** Parse and resolve without registering (used by the analysis pipeline). *)
