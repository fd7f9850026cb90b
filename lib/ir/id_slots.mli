(** Ints kept by id (of a value or a block) for one session: the
    printer's value and block numbers, the bytecode writer's value
    indices. Allocation-free once an id's page exists. *)

type t

val create : unit -> t

val find_or_set : t -> int -> int -> int
(** [find_or_set t id n] is the int kept for [id], or -1 after keeping
    [n] (≥ 0, below 2{^31} - 1) for it. *)
