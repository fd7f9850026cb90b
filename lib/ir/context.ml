(** The IR context: the registry of dialects and their operation, type and
    attribute definitions.

    Everything here is runtime data — registering an IRDL dialect populates a
    context without any code generation, which is the paper's "instantiate
    all necessary data structures at runtime (without recompilation)".

    {b Concurrency model.} A context lives in two phases. While {e open},
    registration mutates the dialect maps under [reg_lock] (and flushes the
    verification cache); reads are only safe from the registering domain.
    {!freeze} transitions the context — under the same lock, so a racing
    registration either completes before the freeze or is cleanly rejected
    after it — and from then on the dialect maps and the flat op table are
    immutable: any number of domains may look definitions up and verify
    concurrently. The verification caches (type/attr verdicts and the op
    signature memo) live in one shard per domain, in [Domain.DLS], touched
    only by that domain, so post-freeze they are lock-free. *)

open Irdl_support

module SMap = Map.Make (String)
module Str_tbl = Hashtbl.Make (String)
module Id_tbl = Hashtbl.Make (Int)

type op_def = Graph.op_def

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

type verify_stats = {
  vs_ty_entries : int;
  vs_attr_entries : int;
  vs_hits : int;
  vs_misses : int;
  vs_memo_ops : int;
  vs_memo_sigs : int;
  vs_memo_hits : int;
  vs_memo_misses : int;
  vs_invalidations : int;
}

type t = {
  mutable dialects : dialect SMap.t;
  ops : op_def Str_tbl.t;
  allow_unregistered : bool;
      (** When true (the default, as in [mlir-opt
          --allow-unregistered-dialect]), operations of unknown dialects
          parse and verify structurally only. *)
  reg_lock : Mutex.t;
      (** Serializes registration, the freeze transition, cache
          configuration and the folding of shard counters. *)
  mutable frozen : bool;
      (** Written only under [reg_lock]; monotone false → true. *)
  mutable vc_enabled : bool;
  mutable vc_gen : int;
      (** Bumped by every flush: a shard of an older generation resets. *)
  mutable vc_filled : bool;
      (** Some shard gained an entry since the last flush. *)
  mutable vc_invalidations : int;
  mutable vc_folded : verify_stats;
      (** Counters of shards that were reset, and counters and table
          sizes of shards whose domain exited; updated under [reg_lock]. *)
}

(* One domain's slice of the verification cache. It lives in a
   [Domain.DLS] slot and only its domain reads or writes it, so its tables
   and counters need no lock. It serves one context at a time, tagged with
   that context and its generation; nothing longer-lived holds it, so its
   tables die with its domain. *)
type vc_shard = {
  mutable sh_ctx : t;
  mutable sh_gen : int;
  mutable sh_key : int;  (** process-unique, renewed at every reset *)
  sh_ty : (unit, Diag.t) result Id_tbl.t;
  sh_attr : (unit, Diag.t) result Id_tbl.t;
  sh_names : Graph.op_handle Str_tbl.t;
  mutable sh_sigs : Graph.op_sig array;
      (** signatures recorded Ok, by open addressing; [no_sig]: free.
          {!no_sigs} until the first is recorded *)
  mutable sh_nsigs : int;
  mutable sh_hits : int;
  mutable sh_misses : int;
  mutable sh_memo_hits : int;
  mutable sh_memo_misses : int;
}

let empty_verify_stats =
  {
    vs_ty_entries = 0;
    vs_attr_entries = 0;
    vs_hits = 0;
    vs_misses = 0;
    vs_memo_ops = 0;
    vs_memo_sigs = 0;
    vs_memo_hits = 0;
    vs_memo_misses = 0;
    vs_invalidations = 0;
  }

let add_verify_stats a b =
  {
    vs_ty_entries = a.vs_ty_entries + b.vs_ty_entries;
    vs_attr_entries = a.vs_attr_entries + b.vs_attr_entries;
    vs_hits = a.vs_hits + b.vs_hits;
    vs_misses = a.vs_misses + b.vs_misses;
    vs_memo_ops = a.vs_memo_ops + b.vs_memo_ops;
    vs_memo_sigs = a.vs_memo_sigs + b.vs_memo_sigs;
    vs_memo_hits = a.vs_memo_hits + b.vs_memo_hits;
    vs_memo_misses = a.vs_memo_misses + b.vs_memo_misses;
    vs_invalidations = a.vs_invalidations + b.vs_invalidations;
  }

let create ?(allow_unregistered = true) () =
  {
    dialects = SMap.empty;
    ops = Str_tbl.create 256;
    allow_unregistered;
    reg_lock = Mutex.create ();
    frozen = false;
    vc_enabled = true;
    vc_gen = 0;
    vc_filled = false;
    vc_invalidations = 0;
    vc_folded = empty_verify_stats;
  }

let allow_unregistered t = t.allow_unregistered

let locked t f =
  Mutex.lock t.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_lock) f

(* ---------------------------------------------------------------- *)
(* Freeze lifecycle                                                  *)
(* ---------------------------------------------------------------- *)

let freeze t = locked t (fun () -> t.frozen <- true)
let is_frozen t = t.frozen

(* Registration entry points call this under [reg_lock], so a register
   racing a freeze is either fully applied before the flag flips or
   rejected here — the dialect maps and the uniquer are never left
   half-updated. *)
let check_open t ~what ~name =
  if t.frozen then
    Diag.raise_error "cannot register %s '%s': the context is frozen" what
      name

(* ---------------------------------------------------------------- *)
(* Verification cache                                                *)
(* ---------------------------------------------------------------- *)

(* Fixed, so a resident server fed adversarial op names or a stream of
   distinct constants keeps each shard small: the op names and signatures
   a shard keeps add up to at most this. *)
let memo_max = 4096

let key_counter = Atomic.make 0
let fresh_key () = Atomic.fetch_and_add key_counter 1 + 1

let counters s =
  { empty_verify_stats with
    vs_hits = s.sh_hits; vs_misses = s.sh_misses;
    vs_memo_hits = s.sh_memo_hits; vs_memo_misses = s.sh_memo_misses }

(* A shard's counts for [t]: its counters, and the sizes of its tables
   while they hold [t]'s current generation (a reset empties them). *)
let shard_stats t s =
  if s.sh_ctx != t then empty_verify_stats
  else if s.sh_gen <> t.vc_gen then counters s
  else
    { (counters s) with
      vs_ty_entries = Id_tbl.length s.sh_ty;
      vs_attr_entries = Id_tbl.length s.sh_attr;
      vs_memo_ops = Str_tbl.length s.sh_names;
      vs_memo_sigs = s.sh_nsigs }

(* At a reset only the counters carry over: the tables start empty. *)
let fold_counters s =
  let t = s.sh_ctx in
  locked t (fun () -> t.vc_folded <- add_verify_stats t.vc_folded (counters s));
  s.sh_hits <- 0;
  s.sh_misses <- 0;
  s.sh_memo_hits <- 0;
  s.sh_memo_misses <- 0

(* The table of a shard that has recorded no signature: one free slot,
   never written, so a run that verifies nothing allocates no table. *)
let no_sigs = [| Graph.no_sig |]

(* The initial tag of every shard; no caller's context. *)
let detached = create ()

let shard_key : vc_shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          sh_ctx = detached;
          sh_gen = 0;
          sh_key = fresh_key ();
          sh_ty = Id_tbl.create 256;
          sh_attr = Id_tbl.create 256;
          sh_names = Str_tbl.create 256;
          sh_sigs = no_sigs;
          sh_nsigs = 0;
          sh_hits = 0;
          sh_misses = 0;
          sh_memo_hits = 0;
          sh_memo_misses = 0;
        }
      in
      (* An exiting domain folds its whole count, tables included, so a
         batch's report is one sum over its domains. The main domain's
         shard is only read by the process it ends. *)
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () ->
            let t = s.sh_ctx in
            locked t (fun () ->
                t.vc_folded <- add_verify_stats t.vc_folded (shard_stats t s)));
      s)

(* The calling domain's shard, reset in place for [t]'s current
   generation if it served another context or an older generation.
   Finding a current shard allocates nothing. *)
let shard t =
  let s = Domain.DLS.get shard_key in
  if s.sh_ctx == t && s.sh_gen = t.vc_gen then s
  else begin
    fold_counters s;
    Id_tbl.reset s.sh_ty;
    Id_tbl.reset s.sh_attr;
    Str_tbl.reset s.sh_names;
    if s.sh_nsigs > 0 then begin
      Array.fill s.sh_sigs 0 (Array.length s.sh_sigs) Graph.no_sig;
      s.sh_nsigs <- 0
    end;
    s.sh_ctx <- t;
    s.sh_gen <- t.vc_gen;
    s.sh_key <- fresh_key ();
    s
  end

(* Read before written, so domains that keep missing after the first
   entry do not keep writing the context's cache line. *)
let filled t = if not t.vc_filled then t.vc_filled <- true

(* A flush only bumps the generation; each domain's shard resets when it
   is next used. Counts only flushes that dropped entries, so
   corpus-sized registration bursts into a fresh context don't inflate
   the number. Callers hold [reg_lock]. *)
let invalidate_locked t =
  if t.vc_filled then begin
    t.vc_invalidations <- t.vc_invalidations + 1;
    t.vc_filled <- false
  end;
  t.vc_gen <- t.vc_gen + 1

let invalidate_verify_cache t = locked t (fun () -> invalidate_locked t)

(* [verify t x] is passed with its argument rather than as a thunk, and
   the probe raises rather than returning an option: a hit allocates
   nothing. *)
let cached_verify tbl_of t id verify x =
  if not t.vc_enabled then verify t x
  else
    let s = shard t in
    match Id_tbl.find (tbl_of s) id with
    | r ->
        s.sh_hits <- s.sh_hits + 1;
        r
    | exception Not_found ->
        s.sh_misses <- s.sh_misses + 1;
        let r = verify t x in
        Id_tbl.replace (tbl_of s) id r;
        filled t;
        r

let cached_verify_ty t id verify ty =
  cached_verify (fun s -> s.sh_ty) t id verify ty

let cached_verify_attr t id verify a =
  cached_verify (fun s -> s.sh_attr) t id verify a

(* ---------------------------------------------------------------- *)
(* Op signature memo                                                 *)
(* ---------------------------------------------------------------- *)

let room s = Str_tbl.length s.sh_names + s.sh_nsigs < memo_max

(* A name past the bound gets a handle of its own, kept only on entries. *)
let resolve_in t s name : Graph.op_handle =
  match Str_tbl.find s.sh_names name with
  | h -> h
  | exception Not_found ->
      let h =
        { Graph.oh_key = s.sh_key; oh_def = Str_tbl.find_opt t.ops name;
          oh_quoted = Attr.to_string (Attr.String name) }
      in
      if room s then begin
        Str_tbl.add s.sh_names name h;
        filled t
      end;
      h

(* The handle on [op]'s entry, resolved again (onto the entry, which only
   ops of that name share) if stale. An op still without an entry gets
   one here. *)
let handle_in t s (op : Graph.op) =
  let e = op.op_sig in
  if e.sg_handle.oh_key = s.sh_key then e.sg_handle
  else begin
    let h = resolve_in t s op.op_name in
    let e = if e == Graph.no_sig then Graph.Op.signature op else e in
    e.sg_handle <- h;
    op.op_sig <- e;
    h
  end

let handle t op = handle_in t (shard t) op

let rec probe (sigs : Graph.op_sig array) op mask i =
  let e = Array.unsafe_get sigs i in
  if e == Graph.no_sig || Graph.Op.has_sig op e then i
  else probe sigs op mask ((i + 1) land mask)

(* The slot of [op]'s signature in the shard's table, or the free slot
   where it belongs: the table is at most half full. [fresh], a new
   [Graph.Op.signature op], is what is hashed: only a miss hashes. *)
let slot_of s op fresh =
  let mask = Array.length s.sh_sigs - 1 in
  probe s.sh_sigs op mask (Hashtbl.hash_param 64 512 fresh land mask)

(* A hit reads the entry the op carries: one int compare and one walk of
   the op. An op whose entry is stale or unverified looks its signature up
   in the shard's table, which holds only signatures this shard verified
   Ok, and keeps what it finds there, marked again: another domain
   verifying the same ops may have marked it with its own key. *)
let memo_mem t s (op : Graph.op) =
  t.vc_enabled
  &&
  let hit =
    (op.op_sig.sg_ok = s.sh_key && Graph.Op.has_sig op op.op_sig)
    ||
    let e = s.sh_sigs.(slot_of s op (Graph.Op.signature op)) in
    e != Graph.no_sig
    && begin
         e.sg_ok <- s.sh_key;
         op.op_sig <- e;
         true
       end
  in
  if hit then s.sh_memo_hits <- s.sh_memo_hits + 1
  else s.sh_memo_misses <- s.sh_memo_misses + 1;
  hit

(* Marks [op]'s entry Ok for this shard, and records it in the table while
   there is room. Only Ok verdicts are recorded, so keeping any subset of
   them is sound; a full table keeps the signatures it recorded first
   rather than let a stream of distinct ones push out the hot ones. *)
let memo_add t s (op : Graph.op) =
  if t.vc_enabled then begin
    if s.sh_sigs == no_sigs then
      s.sh_sigs <- Array.make (2 * memo_max) Graph.no_sig;
    let fresh = Graph.Op.signature op in
    let i = slot_of s op fresh in
    if not (Graph.Op.has_sig op op.op_sig) then begin
      fresh.sg_handle <- op.op_sig.sg_handle;
      op.op_sig <- fresh
    end;
    op.op_sig.sg_ok <- s.sh_key;
    if s.sh_sigs.(i) != Graph.no_sig then s.sh_sigs.(i) <- op.op_sig
    else if room s then begin
      s.sh_sigs.(i) <- op.op_sig;
      s.sh_nsigs <- s.sh_nsigs + 1;
      filled t
    end
  end

let memoized t (op : Graph.op) ~hit ~full =
  let s = shard t in
  let def = (handle_in t s op).oh_def in
  if memo_mem t s op then hit def op
  else
    match full t def op with
    | Ok () ->
        memo_add t s op;
        Ok ()
    | Error _ as r -> r

let sig_entry t (op : Graph.op) =
  let fresh = Graph.Op.signature op in
  let found =
    if t.vc_enabled then
      let s = shard t in
      s.sh_sigs.(slot_of s op fresh)
    else Graph.no_sig
  in
  if found != Graph.no_sig then found else fresh

(* The printer's half of the memo: the tail is a function of the
   signature, so an op copies the one its entry holds. *)
let add_tail t (op : Graph.op) render buf =
  let e = op.op_sig in
  if not (t.vc_enabled && Graph.Op.has_sig op e) then render buf op
  else if String.length e.sg_tail > 0 then Buffer.add_string buf e.sg_tail
  else begin
    let mark = Buffer.length buf in
    render buf op;
    e.sg_tail <- Buffer.sub buf mark (Buffer.length buf - mark)
  end

(* [set_verify_cache t false] restores the pre-memoization behaviour (every
   node re-verified on every visit) — the baseline configuration for
   benchmarks and differential tests. Disabling flushes the cache so a
   later re-enable starts from a clean slate. Not safe to race with active
   verification on other domains; flip it before fanning out. *)
let set_verify_cache t enabled =
  locked t (fun () ->
      if (not enabled) && t.vc_enabled then invalidate_locked t;
      t.vc_enabled <- enabled)

let verify_cache_enabled t = t.vc_enabled

(* The caller's live shard plus the folded counts of every shard that was
   reset or whose domain exited. *)
let verify_stats t =
  let live = shard_stats t (Domain.DLS.get shard_key) in
  locked t (fun () ->
      { (add_verify_stats t.vc_folded live) with
        vs_invalidations = t.vc_invalidations })

let verify_hit_rate { vs_hits; vs_misses; _ } =
  let total = vs_hits + vs_misses in
  if total = 0 then 0. else float_of_int vs_hits /. float_of_int total

let pp_verify_stats ppf s =
  Fmt.pf ppf
    "%d type + %d attr entries, %d hits / %d misses (%.1f%% hit rate), %d \
     invalidations; op memo: %d signatures, %d hits / %d misses"
    s.vs_ty_entries s.vs_attr_entries s.vs_hits s.vs_misses
    (100. *. verify_hit_rate s)
    s.vs_invalidations s.vs_memo_sigs s.vs_memo_hits s.vs_memo_misses

let qualified ~dialect ~name = dialect ^ "." ^ name

let get_dialect t name = SMap.find_opt name t.dialects

let dialects t = SMap.bindings t.dialects |> List.map snd

let register_dialect_locked t name =
  match SMap.find_opt name t.dialects with
  | Some d -> d
  | None ->
      check_open t ~what:"dialect" ~name;
      let d =
        { d_name = name; d_ops = SMap.empty; d_types = SMap.empty;
          d_attrs = SMap.empty }
      in
      t.dialects <- SMap.add name d t.dialects;
      d

let register_dialect t name = locked t (fun () -> register_dialect_locked t name)

let register_op t (od : op_def) =
  locked t (fun () ->
      check_open t ~what:"operation"
        ~name:(qualified ~dialect:od.od_dialect ~name:od.od_name);
      let d = register_dialect_locked t od.od_dialect in
      let qname = qualified ~dialect:od.od_dialect ~name:od.od_name in
      if Str_tbl.mem t.ops qname then
        Diag.raise_error "operation '%s' is already registered" qname;
      d.d_ops <- SMap.add od.od_name od d.d_ops;
      Str_tbl.replace t.ops qname od;
      invalidate_locked t)

let register_type t (td : type_def) =
  locked t (fun () ->
      check_open t ~what:"type"
        ~name:(qualified ~dialect:td.td_dialect ~name:td.td_name);
      let d = register_dialect_locked t td.td_dialect in
      if SMap.mem td.td_name d.d_types then
        Diag.raise_error "type '%s.%s' is already registered" td.td_dialect
          td.td_name;
      d.d_types <- SMap.add td.td_name td d.d_types;
      invalidate_locked t)

let register_attr t (ad : attr_def) =
  locked t (fun () ->
      check_open t ~what:"attribute"
        ~name:(qualified ~dialect:ad.ad_dialect ~name:ad.ad_name);
      let d = register_dialect_locked t ad.ad_dialect in
      if SMap.mem ad.ad_name d.d_attrs then
        Diag.raise_error "attribute '%s.%s' is already registered"
          ad.ad_dialect ad.ad_name;
      d.d_attrs <- SMap.add ad.ad_name ad d.d_attrs;
      invalidate_locked t)

(** Look up the definition for a fully-qualified op name like ["cmath.mul"]:
    one probe of the flat op table. *)
let lookup_op t qualified_name = Str_tbl.find_opt t.ops qualified_name

let lookup_type t ~dialect ~name =
  Option.bind (get_dialect t dialect) (fun d -> SMap.find_opt name d.d_types)

let lookup_attr t ~dialect ~name =
  Option.bind (get_dialect t dialect) (fun d -> SMap.find_opt name d.d_attrs)

let op_stats t =
  SMap.fold
    (fun _ d (nops, ntys, nattrs) ->
      ( nops + SMap.cardinal d.d_ops,
        ntys + SMap.cardinal d.d_types,
        nattrs + SMap.cardinal d.d_attrs ))
    t.dialects (0, 0, 0)

type uniquing_stats = { us_types : Intern.stats; us_attrs : Intern.stats }

let pp_uniquing_stats ppf { us_types; us_attrs } =
  Fmt.pf ppf "types: %a@ attrs: %a" Intern.pp_stats us_types Intern.pp_stats
    us_attrs

(* ------------------------------------------------------------------ *)
(* Unified stats surface                                               *)
(* ------------------------------------------------------------------ *)

type stats = { st_uniquing : uniquing_stats; st_verify : verify_stats }

let stats t =
  let us_types, us_attrs = Attr.uniquer_stats () in
  { st_uniquing = { us_types; us_attrs }; st_verify = verify_stats t }
