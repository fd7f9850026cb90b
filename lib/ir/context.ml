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

(* Everything an op's generated constraints read: a pure function of these
   gives the op's verdict minus the checks [od_verify_rest] repeats. Types
   and attributes are compared with [==] on interned nodes. *)
type op_sig = {
  sg_operands : Attr.ty array;
  sg_results : Attr.ty array;
  sg_attrs : (string * Attr.t) list;
  sg_regions : Attr.ty array option list;
      (** Entry-block argument types per region; [None]: no entry block. *)
  sg_successors : int;
  mutable sg_tail : string;  (** the printed tail; [""] until printed *)
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
      (** Counters of shards that were reset or whose domain exited;
          updated under [reg_lock]. *)
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
  sh_names : Graph.op_handle Str_tbl.t;  (** slot = insertion rank *)
  mutable sh_memo : op_sig array array;
      (** by slot: signatures that verified Ok, hottest first, padded with
          [no_sig] *)
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

let key_counter = Atomic.make 0
let fresh_key () = Atomic.fetch_and_add key_counter 1 + 1

let counters s =
  { empty_verify_stats with
    vs_hits = s.sh_hits; vs_misses = s.sh_misses;
    vs_memo_hits = s.sh_memo_hits; vs_memo_misses = s.sh_memo_misses }

let fold_counters s =
  let t = s.sh_ctx in
  locked t (fun () -> t.vc_folded <- add_verify_stats t.vc_folded (counters s));
  s.sh_hits <- 0;
  s.sh_misses <- 0;
  s.sh_memo_hits <- 0;
  s.sh_memo_misses <- 0

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
          sh_memo = [||];
          sh_hits = 0;
          sh_misses = 0;
          sh_memo_hits = 0;
          sh_memo_misses = 0;
        }
      in
      (* The main domain's shard is only read by the process it ends. *)
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () -> fold_counters s);
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
    s.sh_memo <- [||];
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

(* Fixed bounds, so a resident server fed adversarial op names or a
   stream of distinct constants keeps each shard's memo small. *)
let memo_max_ops = 4096
let memo_max_sigs = 64

(* A name past the bound gets a handle of its own, with no memo slot. *)
let resolve_in t s name : Graph.op_handle =
  match Str_tbl.find s.sh_names name with
  | h -> h
  | exception Not_found ->
      let n = Str_tbl.length s.sh_names in
      let slot = if n < memo_max_ops then n else -1 in
      let h =
        { Graph.oh_key = s.sh_key; oh_def = Str_tbl.find_opt t.ops name;
          oh_quoted = Attr.to_string (Attr.String name); oh_slot = slot }
      in
      if slot >= 0 then begin
        Str_tbl.add s.sh_names name h;
        filled t;
        if slot = Array.length s.sh_memo then
          s.sh_memo <- Array.append s.sh_memo (Array.make (max 64 slot) [||])
      end;
      h

let resolve t (h : Graph.op_handle) name =
  let s = shard t in
  if h.oh_key = s.sh_key then h else resolve_in t s name

let handle t (op : Graph.op) =
  let h = resolve t op.op_handle op.op_name in
  if h != op.op_handle then op.op_handle <- h;
  h

(* The comparisons below walk the op in place: a memo hit allocates
   nothing. *)
let rec same_operand_tys (k : Attr.ty array) (a : Graph.use array) i =
  i < 0 || (k.(i) == a.(i).u_value.v_ty && same_operand_tys k a (i - 1))

let rec same_value_tys (k : Attr.ty array) (a : Graph.value array) i =
  i < 0 || (k.(i) == a.(i).v_ty && same_value_tys k a (i - 1))

let rec same_attrs k (a : (string * Attr.t) list) =
  k == a
  ||
  match (k, a) with
  | (kn, kv) :: k, (n, v) :: a ->
      kv == v && String.equal kn n && same_attrs k a
  | _ -> false

let rec same_regions k (rs : Graph.region list) =
  match (k, rs) with
  | [], [] -> true
  | None :: k, { reg_first = None; _ } :: rs -> same_regions k rs
  | Some tys :: k, { reg_first = Some b; _ } :: rs ->
      Array.length tys = Array.length b.blk_args
      && same_value_tys tys b.blk_args (Array.length tys - 1)
      && same_regions k rs
  | _ -> false

let sig_matches (op : Graph.op) sg =
  Array.length sg.sg_operands = Array.length op.op_operands
  && Array.length sg.sg_results = Array.length op.op_results
  && (match op.successors with
     | [] -> sg.sg_successors = 0
     | succs -> List.length succs = sg.sg_successors)
  && same_operand_tys sg.sg_operands op.op_operands
       (Array.length op.op_operands - 1)
  && same_value_tys sg.sg_results op.op_results
       (Array.length op.op_results - 1)
  && same_attrs sg.sg_attrs op.attrs
  && same_regions sg.sg_regions op.regions

(* Pads every slot's array past its last signature. *)
let no_sig =
  { sg_operands = [||]; sg_results = [||]; sg_attrs = []; sg_regions = [];
    sg_successors = 0; sg_tail = "" }

(* A slot orders itself by use: a hit moves its signature one place toward
   the front, so the signatures a workload uses most sit first and a hit
   takes one or two compares. A swap writes the array only when the hit
   was not already in front. *)
let rec sig_of op (sigs : op_sig array) i =
  if i = Array.length sigs then no_sig
  else
    let sg = Array.unsafe_get sigs i in
    if sg == no_sig then no_sig
    else if not (sig_matches op sg) then sig_of op sigs (i + 1)
    else begin
      if i > 0 then begin
        Array.unsafe_set sigs i (Array.unsafe_get sigs (i - 1));
        Array.unsafe_set sigs (i - 1) sg
      end;
      sg
    end

let memo_mem t (h : Graph.op_handle) op =
  t.vc_enabled
  &&
  let s = shard t in
  h.oh_key = s.sh_key
  &&
  if h.oh_slot >= 0 && sig_of op s.sh_memo.(h.oh_slot) 0 != no_sig then (
    s.sh_memo_hits <- s.sh_memo_hits + 1;
    true)
  else (
    s.sh_memo_misses <- s.sh_memo_misses + 1;
    false)

let signature (op : Graph.op) =
  let ty (v : Graph.value) = v.v_ty in
  {
    sg_operands =
      Array.map (fun (u : Graph.use) -> ty u.u_value) op.op_operands;
    sg_results = Array.map ty op.op_results;
    sg_attrs = op.attrs;
    sg_regions =
      List.map
        (fun (r : Graph.region) ->
          Option.map (fun (b : Graph.block) -> Array.map ty b.blk_args)
            r.reg_first)
        op.regions;
    sg_successors = List.length op.successors;
    sg_tail = "";
  }

let rec first_free (sigs : op_sig array) i =
  if i = Array.length sigs || sigs.(i) == no_sig then i
  else first_free sigs (i + 1)

(* A new signature goes last, in the first free place; a full slot doubles
   up to [memo_max_sigs] and then records no more. Only Ok verdicts are
   recorded, so keeping any subset of them is sound. Evicting instead
   would let an op name with more live signatures than the cap (placeholder
   ops, constants with distinct values) push out the hot ones. *)
let memo_add t (h : Graph.op_handle) op =
  if t.vc_enabled && h.oh_slot >= 0 then
    let s = shard t in
    if h.oh_key = s.sh_key then
      let sigs = s.sh_memo.(h.oh_slot) in
      let n = Array.length sigs in
      let i = first_free sigs 0 in
      if i < n then sigs.(i) <- signature op
      else if n < memo_max_sigs then begin
        let grown = Array.make (min memo_max_sigs (max 4 (2 * n))) no_sig in
        Array.blit sigs 0 grown 0 n;
        grown.(n) <- signature op;
        s.sh_memo.(h.oh_slot) <- grown
      end

(* The printer's half of the memo: an op whose signature verified Ok
   copies the tail rendered for the first op of that signature. *)
let add_tail t (h : Graph.op_handle) op render buf =
  let sg =
    if t.vc_enabled && h.oh_slot >= 0 then
      let s = shard t in
      if h.oh_key = s.sh_key then sig_of op s.sh_memo.(h.oh_slot) 0 else no_sig
    else no_sig
  in
  if sg == no_sig then render buf op
  else if String.length sg.sg_tail > 0 then Buffer.add_string buf sg.sg_tail
  else begin
    let mark = Buffer.length buf in
    render buf op;
    sg.sg_tail <- Buffer.sub buf mark (Buffer.length buf - mark)
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

(* The caller's live shard plus the folded counters of every shard that
   was reset or whose domain exited. Entries count the live shard only. *)
let verify_stats t =
  let s = Domain.DLS.get shard_key in
  let live =
    if s.sh_ctx != t then empty_verify_stats
    else if s.sh_gen <> t.vc_gen then counters s
    else
      { (counters s) with
        vs_ty_entries = Id_tbl.length s.sh_ty;
        vs_attr_entries = Id_tbl.length s.sh_attr;
        vs_memo_ops = Str_tbl.length s.sh_names;
        vs_memo_sigs =
          Array.fold_left (fun n sigs -> n + first_free sigs 0) 0 s.sh_memo }
  in
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
