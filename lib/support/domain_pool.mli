(** Batches of independent tasks on OCaml 5 domains.

    [run pool tasks] spawns [min domains n - 1] domains for a batch of [n]
    tasks, runs the batch on them and on the calling domain, and joins
    them before it returns; no domain outlives its batch. Every
    participant takes the next task index from one shared atomic counter,
    so a long task keeps one participant busy while the others take the
    rest. [~domains:1] (or a one-task batch) runs everything on the caller,
    in order, with no domain spawned.

    Each batch's domains start with cold per-domain tables: the parser's
    name table, the uniquer shard and the verify-cache shard of a fresh
    domain are empty. They live in [Domain.DLS] and nothing else holds
    them, so they are freed once the domain is joined; only their hit and
    miss counters outlive it. So the supported traffic is one batch per
    process (the chunks of an [irdl-opt] run, or the [--listen] serve
    loops); a caller that runs many short batches pays the warm-up on
    every one, but holds no memory for the batches that finished.

    Results are collected positionally: slot [i] of the result is the
    value of [tasks.(i)], whatever domain ran it and in whatever order —
    callers relying on deterministic output just fold the result array in
    input order. A task that raises does not stop the batch: every task
    runs, and [run] then re-raises the exception of the lowest-indexed
    failed task with its backtrace, so error reporting is deterministic
    too. *)

type t

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains:n f] applies [f] to a pool whose batches run on
    [n] participants (the caller and up to [n - 1] spawned domains).
    Defaults to [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [n < 1]. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Execute one batch, blocking until every task completed and every
    domain spawned for it was joined. Slot [i] of the result is the value
    of [tasks.(i)]. If tasks failed, re-raises the exception of the
    lowest-indexed failure after the whole batch drained. An empty batch
    returns [[||]] without spawning.
    @raise Invalid_argument when called re-entrantly (from inside a task)
    or concurrently — one batch per pool at a time. *)

val steals : t -> int
(** Cumulative count of tasks run by a spawned domain rather than the
    caller — observability for tests and benchmarks. *)
