(** Resolved IRDL constraints and their evaluator: every constructor of the
    paper's Figure 2, plus the IRDL-C++ extensions of §5. Constraints range
    uniformly over the attribute domain; a constrained {e type} is checked
    as [Attr.Type ty]. *)

open Irdl_ir

type int_kind = { ik_width : int; ik_signedness : Attr.signedness }

type t =
  | Any  (** [AnyParam] *)
  | Any_type  (** [!AnyType] *)
  | Any_attr  (** [#AnyAttr] *)
  | Eq of Attr.t
      (** Equality with a concrete type ([!f32]), value ([3 : int32_t],
          ["foo"]) or enum constructor ([signedness.Signed]). *)
  | Base_type of { dialect : string; name : string; params : t list option }
      (** [!complex] ([params = None]) or [!complex<pc1, ...>]. *)
  | Base_attr of { dialect : string; name : string; params : t list option }
  | Int_param of int_kind  (** [int32_t], [uint8_t], ... *)
  | Float_param of Attr.float_kind option  (** [#f32_attr]; [None] = any *)
  | String_param  (** [string] *)
  | Symbol_param  (** [symbol] *)
  | Bool_param
  | Location_param
  | Type_id_param
  | Enum_param of { dialect : string; enum : string }
      (** Any constructor of the enum (§4.8). *)
  | Array_any  (** [array] *)
  | Array_of of t  (** [array<pc>] *)
  | Array_exact of t list  (** [[pc1, ..., pcN]] *)
  | Any_of of t list
  | And of t list
  | Not of t
  | Var of var  (** A [ConstraintVars] variable use. *)
  | Native of { name : string; base : t; snippets : string list }
      (** IRDL-C++ [Constraint] definition (§5.1). *)
  | Native_param of { name : string; class_name : string }
      (** IRDL-C++ [TypeOrAttrParam] (§5.2): matches [Attr.Opaque] values
          tagged with [name]. *)
  | Variadic of t  (** Top-level only, in operand/result/region-arg slots. *)
  | Optional of t

and var = { v_name : string; v_constraint : t }

module Env : Map.S with type key = string

type env = Attr.t Env.t
(** Constraint-variable bindings: the first successful check against a
    variable binds it; later checks require equality (paper §4.6). *)

val empty_env : env

val verify : native:Native.t -> env:env -> t -> Attr.t -> (env, string) result
(** Check an attribute against a constraint; returns the (possibly
    extended) environment on success, a human-readable reason on failure. *)

val verify_ty :
  native:Native.t -> env:env -> t -> Attr.ty -> (env, string) result

val is_variadic : t -> bool
(** [Variadic] or [Optional] at the top level. *)

val is_optional : t -> bool
val strip_variadic : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
