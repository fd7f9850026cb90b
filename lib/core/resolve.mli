(** Name resolution: IRDL ASTs to resolved dialects.

    Classifies every surface reference (builtin constructors, builtin types,
    constraint variables, alias parameters, the dialect's own definitions,
    cross-dialect [dialect.name] references) and expands aliases — with
    cycle detection — so downstream passes never see them. *)

open Irdl_support
module C = Constraint_expr

type slot = { s_name : string; s_constraint : C.t; s_loc : Loc.t }
(** A named, constrained binder: parameter, operand, result, attribute or
    region argument. *)

type region = {
  reg_name : string;
  reg_args : slot list;
  reg_terminator : string option;  (** fully qualified op name *)
}

type op = {
  op_name : string;  (** mnemonic, unqualified *)
  op_summary : string option;
  op_vars : C.var list;
  op_operands : slot list;
  op_results : slot list;
  op_attributes : slot list;
  op_regions : region list;
  op_successors : string list option;
      (** [Some names] marks a terminator, even when empty (§4.6). *)
  op_format : string option;
  op_cpp : string list;  (** op-level [CppConstraint] snippets *)
  op_loc : Loc.t;
}

type typedef = {
  td_name : string;
  td_params : slot list;
  td_summary : string option;
  td_cpp : string list;
  td_loc : Loc.t;
}
(** A resolved type or attribute definition (isomorphic, §4.4). *)

type dialect = {
  dl_name : string;
  dl_types : typedef list;
  dl_attrs : typedef list;
  dl_ops : op list;
  dl_enums : Ast.enum_def list;
  dl_ast : Ast.dialect;  (** kept for introspection tooling and analysis *)
}

val resolve_dialect :
  ?engine:Diag.Engine.t -> Ast.dialect -> (dialect, Diag.t) result
(** Resolve a whole dialect definition.

    Every error is emitted to [engine] and resolution continues with the
    next definition, so one run reports all errors; definitions that fail
    to resolve are dropped from the returned dialect, and the result is
    [Error] (also emitted) only when the dialect scope itself could not be
    built. Without [engine] the same resolve runs on a private engine and
    its first error is returned as [Error] ({!Diag.Engine.fail_fast}). *)
