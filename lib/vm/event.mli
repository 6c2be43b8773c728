(** Events observed by instrumentation tools.

    Every executed instruction is described once, by the machine's
    reused {!view}: the dynamic instance identity (global step
    number), the static site (function, pc), the locations read and
    written, the effective memory address for loads/stores, and the
    resolved control-flow target.  The view is refilled in place for
    the next instruction, so it is valid only while a tool's callback
    runs; {!exec} is the boxed, immutable form of the same record,
    built by {!view_to_exec} for tools that keep events (ONTRAC,
    slicing, the application libraries, the wire producers).

    This is also the paper's §2.1 forwarding set — the memory
    addresses/values, input words and control-flow outcomes a main
    core must send to a DIFT helper core because the helper cannot
    reconstruct them from the static code; the multicore runtimes
    ([Dift_multicore.Helper] simulated, [Dift_parallel] real)
    forward exactly these records. *)

open Dift_isa

type fault_kind =
  | Div_by_zero
  | Invalid_icall of int  (** bad function id used as call target *)
  | Check_failed  (** a [Sys Check] assertion evaluated to zero *)
  | Invalid_free of int
  | Out_of_bounds of int
      (** heap access outside any live block (only with bounds
          checking enabled) *)

type fault = {
  kind : fault_kind;
  at_step : int;  (** the faulting dynamic instruction instance *)
  at_tid : int;
  at_func : string;
  at_pc : int;
}

(** Why a run ended. *)
type outcome =
  | Halted  (** a thread executed [Halt], or all threads finished *)
  | Faulted of fault
  | Deadlocked  (** live threads remain but none is runnable *)
  | Out_of_steps  (** the [max_steps] budget was exhausted *)
  | Stopped of string
      (** a tool requested the stop (e.g. attack detected) *)

type exec = {
  step : int;  (** global dynamic instruction count; unique id *)
  tid : int;
  func : Func.t;
  pc : int;
  instr : Instr.t;
  reads : Loc.t list;
  writes : Loc.t list;
  addr : int;  (** effective address of a load/store, or [-1] *)
  next_pc : int;
      (** pc the thread continues at inside the same function, or
          [-1] when control leaves the function *)
  input_index : int;  (** index of the input word consumed, or [-1] *)
  value : int;  (** primary value produced/written, or [0] *)
}

(** A mutable, array-backed projection of {!exec}, designed to be
    refilled in place: the read/write sets live in reusable scratch
    arrays of which the first [v_nreads]/[v_nwrites] entries are
    valid.  The machine fills one view per instruction and hands it
    to every tool; the de-boxed forwarding plane decodes wire batches
    into one reused view per helper; the engine's transfer function
    consumes views directly.  Nothing is allocated per event.

    Lifetime rule: a view handed to a callback is valid only for the
    duration of that call.  Anything kept must be copied out, for
    instance with {!view_to_exec}. *)
type view = {
  mutable v_step : int;
  mutable v_tid : int;
  mutable v_func : Func.t;
  mutable v_pc : int;
  mutable v_instr : Instr.t;
  mutable v_reads : Loc.t array;
  mutable v_nreads : int;
  mutable v_writes : Loc.t array;
  mutable v_nwrites : int;
  mutable v_addr : int;
  mutable v_next_pc : int;
  mutable v_input_index : int;
  mutable v_value : int;
}

(** A blank reusable view ([func]/[instr] are placeholders until the
    first fill). *)
val view_create : func:Func.t -> instr:Instr.t -> view

(** Refill [view] from a boxed record (grows the scratch arrays as
    needed, never shrinks them). *)
val view_fill : view -> exec -> unit

(** A fresh view carrying [exec]. *)
val view_of_exec : exec -> view

(** A fresh boxed record with the view's contents, whose loc lists
    are copied out of the scratch arrays — safe to retain after the
    view is refilled.  The machine calls this at most once per
    instruction and shares the record among its exec tools. *)
val view_to_exec : view -> exec

val is_branch : exec -> bool
val pp_fault_kind : fault_kind Fmt.t
val pp_fault : fault Fmt.t
val pp_outcome : outcome Fmt.t
val pp_exec : exec Fmt.t
