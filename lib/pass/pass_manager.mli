(** The instrumented pipeline executor (MLIR's [PassManager] +
    [PassInstrumentation] analog).

    A manager holds an ordered list of passes and instrumentation options;
    {!run} executes the pipeline over a parsed module (a list of top-level
    operations) and returns a {!report}: per-pass wall-clock time plus the
    pass's unified statistics, aggregated across the module's ops.

    Instrumentation:
    - {b timing} is always collected (monotonic-enough wall clock); render
      it with {!pp_report} (text) or {!report_to_json} (machine-readable,
      the [--pass-timing-json] payload).
    - {b IR snapshots}: [print_ir_before]/[print_ir_after] name passes to
      dump the IR around (or [_all] for every pass); dumps go through the
      [dump] hook (default: generic-form printing to stderr with an
      MLIR-style [// -----// IR dump before cse //----- //] header).
    - {b verify-each}: after every pass, re-run the (memoized) verifier
      over the whole module; a failure is attributed to the pass by name —
      ["IR verification failed after pass 'cse': ..."]. The verifier is a
      hook so tests can inject one; the default is
      {!Irdl_ir.Verifier.verify}. *)

open Irdl_support
open Irdl_ir

type t

val create :
  ?verify_each:bool ->
  ?verifier:(Context.t -> Graph.op -> (unit, Diag.t) result) ->
  ?print_ir_before:string list ->
  ?print_ir_after:string list ->
  ?print_ir_before_all:bool ->
  ?print_ir_after_all:bool ->
  ?dump:(Context.t -> string -> Graph.op list -> unit) ->
  Pass.t list ->
  t

val passes : t -> Pass.t list

val render_dump : Context.t -> string -> Graph.op list -> string
(** One IR snapshot as the default [dump] prints it, without the final
    newline: the [// -----// <header> //----- //] line, then the ops in
    generic form. *)

type pass_report = {
  pr_pass : string;  (** pass name *)
  pr_time_s : float;  (** wall-clock seconds, summed over the module's ops *)
  pr_stats : Pass.statistics;  (** aggregated over the module's ops *)
}

type report = { rp_passes : pass_report list; rp_total_s : float }

val run : t -> Context.t -> Graph.op list -> (report, Diag.t) result
(** Execute the pipeline over the module. Stops at the first failure: a
    failing pass keeps its own diagnostic and gains a
    ["while running pass '<name>'"] note; a [verify_each] failure is
    attributed with ["IR verification failed after pass '<name>':"]. *)

val merge_reports : report list -> report option
(** The reports of one pipeline over several modules as one report: times
    and statistics summed pass by pass, in pipeline order. [None] for no
    report. The reports must come from one pipeline. *)

val pp_report : Format.formatter -> report -> unit
(** The human-readable timing report: total time, then one row per pass
    with time, share of total, and statistics. *)

val report_to_json : report -> string
(** Machine-readable rendering:
    [{ "total_s": ..., "passes": [ { "pass": ..., "time_s": ...,
       "stats": {...} }, ... ] }]. *)
