(** The IRDL-C++ escape hatch (paper §5), reinterpreted for OCaml.

    A registry binds each C++ snippet — keyed by its verbatim text — to an
    OCaml closure. Snippets without a registered hook are the paper's
    "requires generic C++" category: by default they verify vacuously and
    are counted; [strict] mode turns them into hard errors. *)

open Irdl_ir

type codec = {
  codec_parse : string -> Attr.t option;
  codec_print : Attr.t -> string option;
}
(** A [TypeOrAttrParam]'s [CppParser]/[CppPrinter] pair: conversion between
    text and an {!Irdl_ir.Attr.Opaque} payload. *)

module Tbl : Hashtbl.S with type key = string
(** Hook tables keyed by snippet text (codecs by definition name). *)

type t = {
  param_hooks : (Attr.t -> bool) Tbl.t;
  def_hooks : (Attr.t list -> bool) Tbl.t;
  op_hooks : (Graph.op -> bool) Tbl.t;
  codecs : codec Tbl.t;
  mutable strict : bool;
  unresolved : unresolved Atomic.t;
      (** Verification may note unresolved snippets from several domains
          against one shared registry: a repeat sighting reads this
          snapshot without a lock; a first one adds to it by
          compare-and-set. *)
}

and unresolved = { seen : Set.Make(String).t; order : string list }

val create : ?strict:bool -> unit -> t

val default : t
(** A shared default registry used by convenience entry points. *)

val register_param_hook : t -> string -> (Attr.t -> bool) -> unit
(** Bind a [Constraint ... { CppConstraint "..." }] snippet: a predicate
    over a single parameter value ([$_self]). *)

val register_def_hook : t -> string -> (Attr.t list -> bool) -> unit
(** Bind a [CppConstraint] inside a [Type]/[Attribute] definition: a
    predicate over the full parameter list. *)

val register_op_hook : t -> string -> (Graph.op -> bool) -> unit
(** Bind a [CppConstraint] inside an [Operation]: a predicate over the op. *)

val register_codec : t -> string -> codec -> unit
(** Bind a [TypeOrAttrParam] (by definition name) to its codec. *)

val find_codec : t -> string -> codec option

val check_param : t -> string -> Attr.t -> (bool, string) result
(** Evaluate a snippet: [Ok b] when a hook is registered, [Ok true] (and the
    snippet recorded, on its first sighting only) when unresolved and
    non-strict, [Error snippet] when unresolved in strict mode. *)

val check_def : t -> string -> Attr.t list -> (bool, string) result
val check_op : t -> string -> Graph.op -> (bool, string) result

val unresolved : t -> string list
(** The distinct snippets looked up without a registered hook, oldest first:
    each is recorded once, however many checks hit it. *)

val clear_unresolved : t -> unit
