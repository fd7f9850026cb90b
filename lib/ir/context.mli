(** The IR context: the registry of dialects and their operation, type and
    attribute definitions. Registering an IRDL dialect populates a context
    at runtime, without code generation (paper §3).

    {b Concurrency model.} A context lives in two phases. While {e open},
    the [register_*] functions mutate the dialect maps under an internal
    registration lock; reads are only safe from the registering domain.
    {!freeze} transitions the context under the same lock — a registration
    racing a freeze either completes before it or is cleanly rejected after
    it — and from then on the dialect maps and the flat op table are
    immutable, so any number of domains may run lookups and verification
    concurrently. Only a frozen context caches verdicts: its signature
    memo lives in one shard per domain (in [Domain.DLS], only ever touched
    by that domain) and is lock-free. *)

open Irdl_support

module SMap : Map.S with type key = string
module Str_tbl : Hashtbl.S with type key = string

type op_def = Graph.op_def
(** A registered operation definition ({!Graph.op_def}). *)

type type_def = {
  td_dialect : string;
  td_name : string;
  td_summary : string;
  td_num_params : int;
  td_verify : Attr.t list -> (unit, Diag.t) result;
}

type attr_def = {
  ad_dialect : string;
  ad_name : string;
  ad_summary : string;
  ad_num_params : int;
  ad_verify : Attr.t list -> (unit, Diag.t) result;
}

type dialect = {
  d_name : string;
  mutable d_ops : op_def SMap.t;
  mutable d_types : type_def SMap.t;
  mutable d_attrs : attr_def SMap.t;
}

type t

val create : ?allow_unregistered:bool -> unit -> t

val allow_unregistered : t -> bool
(** When true (the default), operations/types of unknown dialects parse
    and verify structurally only. Fixed at {!create}. *)

val qualified : dialect:string -> name:string -> string

val get_dialect : t -> string -> dialect option
val dialects : t -> dialect list

val register_dialect : t -> string -> dialect
(** Get or create the named dialect.
    @raise Irdl_support.Diag.Error_exn when the context is frozen and the
    dialect does not already exist. *)

val register_op : t -> op_def -> unit
(** @raise Irdl_support.Diag.Error_exn on duplicate registration or a
    frozen context. *)

val register_type : t -> type_def -> unit
val register_attr : t -> attr_def -> unit

(** {2 Freeze lifecycle}

    Freezing declares registration finished and unlocks concurrent use:
    after {!freeze}, the dialect maps never change, so lookups and
    verification are safe from any domain without synchronization. The
    transition itself is serialized with registration — a [register_*]
    call racing a freeze on another domain either completes before the
    flag flips or raises the frozen-context error; it can never leave a
    definition half-registered. Freezing is idempotent and one-way. *)

val freeze : t -> unit
val is_frozen : t -> bool

val lookup_op : t -> string -> op_def option
(** Look up a fully-qualified name like ["cmath.mul"]: one hash probe. *)

val lookup_type : t -> dialect:string -> name:string -> type_def option
val lookup_attr : t -> dialect:string -> name:string -> attr_def option

val op_stats : t -> int * int * int
(** Total registered (operations, types, attributes). *)

(** {2 Op handles and the signature memo}

    An op's IRDL verdict is a pure function of its name and signature
    ({!Graph.op_sig}): the operand and result types, the
    [(name, attribute)] list, the region count, each region's entry-block
    argument types (no entry block is distinct from zero arguments) and
    the successor count. A frozen context can never gain a definition, so
    it memoizes that verdict, and nothing can make it stale. Each op
    carries the entry of its signature, shared by the ops built with it: a
    reader gives it as it builds the op ({!sig_entry}), other ops get one
    when first verified ({!memoized}). An entry holds the key of the shard
    that verified it [Ok], so a hit is one int compare and one walk of the
    op against its own entry: a changed op looks its new signature up
    again. The entry also keeps the printer's rendering of it
    ({!add_tail}). Errors are never recorded. Types and attributes are
    verified only on a memo miss.

    An entry also holds its name's handle ({!handle}). A shard keeps the
    handles of the names it resolved and a table of the signatures it
    verified [Ok], so ops built apart share verdicts; the two add up to
    at most {!memo_max}. Past the bound, a handle or a verdict is kept
    only on its entries. Each domain keeps one shard, serving one frozen
    context at a time: used with another, it is emptied and takes a new
    key, so a handle or verdict from another context or domain is stale.
    Nothing else holds a shard, so its tables die with its domain; its
    counters outlive it (see {!stats}).

    An open context is the uncached reference: it records nothing, so its
    verdicts and printed text are the memo's oracle. On it, {!memoized}
    always runs [full], {!sig_entry} returns a fresh entry, {!add_tail}
    renders and {!handle} looks the name up. *)

val memo_max : int
(** Op names and signatures one shard keeps, together (4096). *)

val handle : t -> Graph.op -> Graph.op_handle
(** [op]'s handle: the one on its entry if valid, else its name's — one
    probe of the shard's handles, plus one of the op table on first use —
    stored on the entry. *)

val memoized :
  t ->
  Graph.op ->
  hit:(op_def option -> Graph.op -> (unit, Diag.t) result) ->
  full:(t -> op_def option -> Graph.op -> (unit, Diag.t) result) ->
  (unit, Diag.t) result
(** Verify [op] with one lookup of the calling domain's shard, given the
    op's definition: [hit] when its signature verified [Ok] under its
    name before (a memo hit), else [full], whose [Ok] is recorded on the
    op's entry (a fresh one if the op's is stale) and in the shard's
    table while there is room. On an open context, always [full]. Counts
    a memo hit or miss; a hit allocates nothing beyond [hit]'s own. *)

val sig_entry : t -> Graph.op -> Graph.op_sig
(** The entry for a reader to give the op it just built: the shard's
    with the op's signature, else a fresh one. *)

val add_tail :
  t -> Graph.op -> (Buffer.t -> Graph.op -> unit) -> Buffer.t -> unit
(** [add_tail t op render buf] appends [render buf op], where [render]
    prints only what the op's signature determines: once per entry,
    copied after that. *)

type verify_stats = {
  vs_names : int;  (** op names whose handles the shard keeps *)
  vs_sigs : int;  (** signatures the shard keeps, verified [Ok] *)
  vs_hits : int;  (** memo hits *)
  vs_misses : int;
}

type uniquing_stats = { us_types : Intern.stats; us_attrs : Intern.stats }

type stats = {
  st_uniquing : uniquing_stats;
      (** Attribute/type uniquer ({!Intern}) counters: [nodes] counts the
          calling domain's live tables, [hits] / [misses] add those of
          every domain that has exited. The uniquer is domain-local and
          shared by all contexts, so every context reports the same
          numbers. *)
  st_verify : verify_stats;
      (** Signature-memo counters, summed over the calling domain's live
          shard and every shard that served this context and whose domain
          has exited. The hit and miss counts also keep those of shards
          that moved on to another context; the name and signature counts
          cover only tables still serving it. All zero on an open context.
          After a parallel run, read them once the worker domains have
          joined. *)
}

val stats : t -> stats
(** The context's counters in one record. *)

val pp_verify_stats : Format.formatter -> verify_stats -> unit
val pp_uniquing_stats : Format.formatter -> uniquing_stats -> unit
