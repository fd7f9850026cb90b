(** Textual IR output: the MLIR-like generic form, plus custom pretty forms
    for operations registered with a declarative format (paper §4.7).
    Printing never fails; inapplicable formats fall back to generic form.

    {!add_op} is the only renderer: it appends an operation to a
    [Buffer.t] (attributes and types through {!Attr.add}/{!Attr.add_ty},
    names through {!Attr.add_quoted}); {!pp_op} and the [to_string]s wrap
    it. *)

type t

val create : ?generic:bool -> Context.t -> t
(** A printing session; value/block names are assigned per session.
    [generic] forces generic form even when formats are registered. *)

val value_name : t -> Graph.value -> string
(** The (stable, per-session) printed name of a value, e.g. ["%0"]. *)

val block_name : t -> Graph.block -> string

val add_op : ?level:int -> t -> Buffer.t -> Graph.op -> unit
(** Append one operation (and its nested regions) at indent [level].
    Nesting depth is bounded only by memory (an explicit job stack, not
    recursion); names are numbered in emission order. A custom format that
    cannot be applied leaves no partial text: the op prints in generic
    form instead. *)

val pp_op : ?level:int -> t -> Format.formatter -> Graph.op -> unit
(** {!add_op} into a formatter. *)

val op_to_string : ?generic:bool -> Context.t -> Graph.op -> string

val ops_to_string : ?generic:bool -> Context.t -> Graph.op list -> string
(** Print top-level operations, one per line, sharing value names. *)
