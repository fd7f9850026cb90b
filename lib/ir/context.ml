(** The IR context: the registry of dialects and their operation, type and
    attribute definitions.

    Everything here is runtime data — registering an IRDL dialect populates a
    context without any code generation, which is the paper's "instantiate
    all necessary data structures at runtime (without recompilation)".

    {b Concurrency model.} A context lives in two phases. While {e open},
    registration mutates the dialect maps under [reg_lock]; reads are only
    safe from the registering domain, and nothing is cached. {!freeze}
    transitions the context — under the same lock, so a racing
    registration either completes before the freeze or is cleanly rejected
    after it — and from then on the dialect maps and the flat op table are
    immutable: any number of domains may look definitions up and verify
    concurrently. Only then does verification go through the op signature
    memo, which lives in one shard per domain, in [Domain.DLS], touched
    only by that domain, so it is lock-free and can never go stale. *)

open Irdl_support

module SMap = Map.Make (String)
module Str_tbl = Hashtbl.Make (String)

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
  vs_names : int;
  vs_sigs : int;
  vs_hits : int;
  vs_misses : int;
}

type t = {
  mutable dialects : dialect SMap.t;
  ops : op_def Str_tbl.t;
  allow_unregistered : bool;
      (** When true (the default, as in [mlir-opt
          --allow-unregistered-dialect]), operations of unknown dialects
          parse and verify structurally only. *)
  reg_lock : Mutex.t;
      (** Serializes registration, the freeze transition and the folding
          of shard counters. *)
  mutable frozen : bool;
      (** Written only under [reg_lock]; monotone false → true. *)
  mutable vc_folded : verify_stats;
      (** Counters of shards that moved to another context, and counters
          and table sizes of shards whose domain exited; updated under
          [reg_lock]. *)
}

(* One domain's slice of the signature memo. It lives in a [Domain.DLS]
   slot and only its domain reads or writes it, so its tables and counters
   need no lock. It serves one frozen context at a time, tagged with that
   context; nothing longer-lived holds it, so its tables die with its
   domain. *)
type vc_shard = {
  mutable sh_ctx : t;
  mutable sh_key : int;  (** process-unique, renewed at every switch *)
  sh_names : Graph.op_handle Str_tbl.t;
  mutable sh_sigs : Graph.op_sig array;
      (** signatures recorded Ok, by open addressing; [no_sig]: free.
          {!no_sigs} until the first is recorded *)
  mutable sh_nsigs : int;
  mutable sh_hits : int;
  mutable sh_misses : int;
}

let empty_verify_stats = { vs_names = 0; vs_sigs = 0; vs_hits = 0; vs_misses = 0 }

let add_verify_stats a b =
  {
    vs_names = a.vs_names + b.vs_names;
    vs_sigs = a.vs_sigs + b.vs_sigs;
    vs_hits = a.vs_hits + b.vs_hits;
    vs_misses = a.vs_misses + b.vs_misses;
  }

let create ?(allow_unregistered = true) () =
  {
    dialects = SMap.empty;
    ops = Str_tbl.create 256;
    allow_unregistered;
    reg_lock = Mutex.create ();
    frozen = false;
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
(* Op signature memo                                                 *)
(* ---------------------------------------------------------------- *)

(* Fixed, so a resident server fed adversarial op names or a stream of
   distinct constants keeps each shard small: the op names and signatures
   a shard keeps add up to at most this. *)
let memo_max = 4096

let key_counter = Atomic.make 0
let fresh_key () = Atomic.fetch_and_add key_counter 1 + 1

(* A shard's counts for [t]: none unless it serves [t]. *)
let shard_stats t s =
  if s.sh_ctx != t then empty_verify_stats
  else
    { vs_names = Str_tbl.length s.sh_names; vs_sigs = s.sh_nsigs;
      vs_hits = s.sh_hits; vs_misses = s.sh_misses }

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
          sh_key = fresh_key ();
          sh_names = Str_tbl.create 256;
          sh_sigs = no_sigs;
          sh_nsigs = 0;
          sh_hits = 0;
          sh_misses = 0;
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

(* The calling domain's shard, emptied in place for [t] if it served
   another context: only the counters carry over, to the context it
   leaves. Finding the current shard allocates nothing. Callers pass a
   frozen context. *)
let shard t =
  let s = Domain.DLS.get shard_key in
  if s.sh_ctx == t then s
  else begin
    let old = s.sh_ctx in
    locked old (fun () ->
        old.vc_folded <-
          add_verify_stats old.vc_folded
            { (shard_stats old s) with vs_names = 0; vs_sigs = 0 });
    s.sh_hits <- 0;
    s.sh_misses <- 0;
    Str_tbl.reset s.sh_names;
    if s.sh_nsigs > 0 then begin
      Array.fill s.sh_sigs 0 (Array.length s.sh_sigs) Graph.no_sig;
      s.sh_nsigs <- 0
    end;
    s.sh_ctx <- t;
    s.sh_key <- fresh_key ();
    s
  end

let room s = Str_tbl.length s.sh_names + s.sh_nsigs < memo_max

let new_handle t key name : Graph.op_handle =
  { oh_key = key; oh_def = Str_tbl.find_opt t.ops name;
    oh_quoted = Attr.to_string (Attr.String name) }

(* A name past the bound gets a handle of its own, kept only on entries. *)
let resolve_in t s name =
  match Str_tbl.find s.sh_names name with
  | h -> h
  | exception Not_found ->
      let h = new_handle t s.sh_key name in
      if room s then Str_tbl.add s.sh_names name h;
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

(* An open context records nothing: its handles are never valid. *)
let handle t (op : Graph.op) =
  if t.frozen then handle_in t (shard t) op else new_handle t 0 op.op_name

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
let memo_mem s (op : Graph.op) =
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
  if hit then s.sh_hits <- s.sh_hits + 1 else s.sh_misses <- s.sh_misses + 1;
  hit

(* Marks [op]'s entry Ok for this shard, and records it in the table while
   there is room. Only Ok verdicts are recorded, so keeping any subset of
   them is sound; a full table keeps the signatures it recorded first
   rather than let a stream of distinct ones push out the hot ones. *)
let memo_add s (op : Graph.op) =
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
    s.sh_nsigs <- s.sh_nsigs + 1
  end

let memoized t (op : Graph.op) ~hit ~full =
  if not t.frozen then full t (Str_tbl.find_opt t.ops op.op_name) op
  else
    let s = shard t in
    let def = (handle_in t s op).oh_def in
    if memo_mem s op then hit def op
    else
      match full t def op with
      | Ok () ->
          memo_add s op;
          Ok ()
      | Error _ as r -> r

let sig_entry t (op : Graph.op) =
  let fresh = Graph.Op.signature op in
  if not t.frozen then fresh
  else
    let s = shard t in
    let found = s.sh_sigs.(slot_of s op fresh) in
    if found != Graph.no_sig then found else fresh

(* The printer's half of the memo: the tail is a function of the
   signature, so an op copies the one its entry holds. *)
let add_tail t (op : Graph.op) render buf =
  let e = op.op_sig in
  if not (t.frozen && Graph.Op.has_sig op e) then render buf op
  else if String.length e.sg_tail > 0 then Buffer.add_string buf e.sg_tail
  else begin
    let mark = Buffer.length buf in
    render buf op;
    e.sg_tail <- Buffer.sub buf mark (Buffer.length buf - mark)
  end

(* The caller's live shard plus the folded counts of every shard that
   moved on or whose domain exited. *)
let verify_stats t =
  let live = shard_stats t (Domain.DLS.get shard_key) in
  locked t (fun () -> add_verify_stats t.vc_folded live)

let pp_verify_stats ppf s =
  Fmt.pf ppf "op memo: %d signatures, %d hits / %d misses" s.vs_sigs
    s.vs_hits s.vs_misses

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
      Str_tbl.replace t.ops qname od)

let register_type t (td : type_def) =
  locked t (fun () ->
      check_open t ~what:"type"
        ~name:(qualified ~dialect:td.td_dialect ~name:td.td_name);
      let d = register_dialect_locked t td.td_dialect in
      if SMap.mem td.td_name d.d_types then
        Diag.raise_error "type '%s.%s' is already registered" td.td_dialect
          td.td_name;
      d.d_types <- SMap.add td.td_name td d.d_types)

let register_attr t (ad : attr_def) =
  locked t (fun () ->
      check_open t ~what:"attribute"
        ~name:(qualified ~dialect:ad.ad_dialect ~name:ad.ad_name);
      let d = register_dialect_locked t ad.ad_dialect in
      if SMap.mem ad.ad_name d.d_attrs then
        Diag.raise_error "attribute '%s.%s' is already registered"
          ad.ad_dialect ad.ad_name;
      d.d_attrs <- SMap.add ad.ad_name ad d.d_attrs)

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
