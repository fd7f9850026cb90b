(** The IRDL-C++ escape hatch (paper §5), reinterpreted for OCaml.

    IRDL-C++ embeds generic C++ snippets in a spec ([CppConstraint],
    [CppParser], [CppPrinter]) and relies on the host compiler to give them
    meaning. Here the host language is OCaml: a registry binds each snippet —
    keyed by its verbatim text, optionally scoped to a dialect — to an OCaml
    closure. Snippets without a registered hook are exactly the paper's
    "requires generic C++" category: by default they verify vacuously and are
    counted (Logs debug), while [strict] mode turns them into hard errors.

    Hook kinds mirror where snippets appear:
    - {!register_param_hook}: [Constraint ... { CppConstraint "..." }] —
      predicate over a single parameter value ([$_self]);
    - {!register_def_hook}: [CppConstraint] inside a [Type]/[Attribute]
      definition — predicate over the full parameter list;
    - {!register_op_hook}: [CppConstraint] inside an [Operation] — predicate
      over the operation ([$_self]);
    - {!register_codec}: [TypeOrAttrParam]'s [CppParser]/[CppPrinter] pair —
      conversion between text and an {!Irdl_ir.Attr.Opaque} payload. *)

open Irdl_ir
module SSet = Set.Make (String)

(* Monomorphic string tables: a hook lookup runs on every check of a
   snippet (an op's hooks on every verify-memo hit), so it hashes and
   compares as a string, not through the polymorphic primitives. *)
module Tbl = Hashtbl.Make (String)

type codec = {
  codec_parse : string -> Attr.t option;
  codec_print : Attr.t -> string option;
}

type t = {
  param_hooks : (Attr.t -> bool) Tbl.t;
  def_hooks : (Attr.t list -> bool) Tbl.t;
  op_hooks : (Graph.op -> bool) Tbl.t;
  codecs : codec Tbl.t;  (** keyed by TypeOrAttrParam name *)
  mutable strict : bool;
  unresolved : unresolved Atomic.t;
      (** Verification may note snippets from several domains against one
          shared registry: readers probe the immutable snapshot without a
          lock, and a new snippet is added by compare-and-set. *)
}

and unresolved = {
  seen : SSet.t;
  order : string list;
      (** Distinct snippets looked up without a registered hook, most
          recent first; introspectable for tooling and tests. *)
}

let no_unresolved = { seen = SSet.empty; order = [] }

let create ?(strict = false) () =
  {
    param_hooks = Tbl.create 16;
    def_hooks = Tbl.create 16;
    op_hooks = Tbl.create 16;
    codecs = Tbl.create 16;
    strict;
    unresolved = Atomic.make no_unresolved;
  }

(** A shared default registry for convenience entry points. *)
let default = create ()

let src = Logs.Src.create "irdl.native" ~doc:"IRDL native-hook registry"

module Log = (val Logs.src_log src : Logs.LOG)

let register_param_hook t snippet f = Tbl.replace t.param_hooks snippet f
let register_def_hook t snippet f = Tbl.replace t.def_hooks snippet f
let register_op_hook t snippet f = Tbl.replace t.op_hooks snippet f
let register_codec t name codec = Tbl.replace t.codecs name codec

let find_codec t name = Tbl.find_opt t.codecs name

(* A snippet is recorded (and logged) on its first sighting only: every op
   carrying it checks it again, and a resident server must not grow the
   list by one cell per verified op. A repeat sighting is one probe of the
   current snapshot: no lock, no allocation, so domains that verify the
   same snippet never serialize on it. *)
let rec note_unresolved t snippet =
  let u = Atomic.get t.unresolved in
  if not (SSet.mem snippet u.seen) then
    let u' = { seen = SSet.add snippet u.seen; order = snippet :: u.order } in
    if Atomic.compare_and_set t.unresolved u u' then
      Log.debug (fun m -> m "no native hook registered for %S" snippet)
    else note_unresolved t snippet

(* Hooks are arbitrary user closures; one that raises must not crash the
   verifier, so a raising hook counts as a failed constraint (with a
   warning naming the snippet). Out-of-memory is re-raised. *)
let apply_hook snippet f x =
  try f x with
  | Out_of_memory -> raise Out_of_memory
  | exn ->
      Log.warn (fun m ->
          m "native hook for %S raised %s; treating as failed" snippet
            (Printexc.to_string exn));
      false

(** Evaluate a snippet against a value. [Ok true]/[Ok false] when a hook is
    registered, [Ok true] with a note when unresolved and non-strict,
    [Error] when unresolved in strict mode. *)
let check_param t snippet value =
  match Tbl.find_opt t.param_hooks snippet with
  | Some f -> Ok (apply_hook snippet f value)
  | None ->
      if t.strict then Error snippet
      else (
        note_unresolved t snippet;
        Ok true)

let check_def t snippet params =
  match Tbl.find_opt t.def_hooks snippet with
  | Some f -> Ok (apply_hook snippet f params)
  | None ->
      if t.strict then Error snippet
      else (
        note_unresolved t snippet;
        Ok true)

let check_op t snippet op =
  match Tbl.find_opt t.op_hooks snippet with
  | Some f -> Ok (apply_hook snippet f op)
  | None ->
      if t.strict then Error snippet
      else (
        note_unresolved t snippet;
        Ok true)

let unresolved t = List.rev (Atomic.get t.unresolved).order
let clear_unresolved t = Atomic.set t.unresolved no_unresolved
