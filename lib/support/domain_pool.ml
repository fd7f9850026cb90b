(** Batches of independent tasks on OCaml 5 domains. See the interface for
    the contract; the notes here are about the synchronization.

    A batch has one atomic counter, [next]: every participant, the caller
    included, claims the next task index with [fetch_and_add] until the
    indices run out, so each task is claimed exactly once and no lock is
    taken. A task stores its outcome in its own slot of [results]; the
    caller reads the slots only after joining every spawned domain, and
    the join is the happens-before edge for the slots those domains
    wrote. *)

type t = {
  domains : int;  (** participants per batch: spawned domains + the caller *)
  running : bool Atomic.t;  (** re-entrancy guard *)
  steals : int Atomic.t;
}

let steals t = Atomic.get t.steals

let with_pool ?domains f =
  let domains =
    match domains with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some n ->
        if n < 1 then invalid_arg "Domain_pool.with_pool: domains must be >= 1";
        n
  in
  f { domains; running = Atomic.make false; steals = Atomic.make 0 }

let run pool (tasks : (unit -> 'a) array) : 'a array =
  if not (Atomic.compare_and_set pool.running false true) then
    invalid_arg "Domain_pool.run: a batch is already running";
  let n = Array.length tasks in
  let results : ('a, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let next = Atomic.make 0 in
  let rec drain ~spawned =
    let j = Atomic.fetch_and_add next 1 in
    if j < n then begin
      results.(j) <-
        Some
          (match tasks.(j) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      if spawned then Atomic.incr pool.steals;
      drain ~spawned
    end
  in
  (* A domain that cannot be spawned is not needed: the caller drains
     whatever the others leave. *)
  let rec spawn k acc =
    if k <= 0 then acc
    else
      match Domain.spawn (fun () -> drain ~spawned:true) with
      | d -> spawn (k - 1) (d :: acc)
      | exception Failure _ -> acc
  in
  let spawned = spawn (min pool.domains n - 1) [] in
  drain ~spawned:false;
  List.iter Domain.join spawned;
  Atomic.set pool.running false;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None ->
          (* Unreachable: every index below [n] was claimed and every
             claimant joined. *)
          assert false)
    results
