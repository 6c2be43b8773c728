(** The instrumentation-tool interface.

    A tool is what a Pin/Valgrind plugin is to a real binary: a set of
    callbacks invoked by the machine as execution proceeds.  Every
    observer in the reproduction is a tool: the DIFT engines (paper
    §2.1, §3.3, §3.4), the ONTRAC tracer (§2.1), the request logger
    (§2.2) and the race detector (§3.1).

    The per-instruction callback takes one of two forms.  A view
    callback sees the machine's reused {!Event.view}, valid only for
    the duration of the call; nothing is allocated to serve it.  An
    exec callback receives the boxed {!Event.exec}, which it may keep;
    the machine builds that record from the view at most once per
    instruction, shares it among all the exec callbacks of the step,
    and does not build it at all when no such tool is attached.

    [dispatch_cost] is the per-instruction overhead the machine
    charges while this tool is attached.  Binary-instrumentation tools
    pay {!Cost.dbi_dispatch}; OS-level observers (checkpoint/logging,
    or a tracer that instruments selectively and charges itself) pass
    [0]. *)

(** The per-instruction callback, called after each instruction's
    effects are applied. *)
type on_instr =
  | View of (Event.view -> unit)
      (** sees the live view (see {!Event.view} for its lifetime) *)
  | Exec of (Event.exec -> unit)  (** receives the boxed record *)

type t = {
  name : string;
  dispatch_cost : int;
  on_instr : on_instr;
  on_fault : Event.fault -> unit;  (** called when the machine faults *)
  on_finish : Event.outcome -> unit;
      (** called once, when the run ends *)
}

(** [on_view] and [on_exec] are the two forms of the per-instruction
    callback; neither makes a tool that ignores instructions.
    @raise Invalid_argument when given both. *)
val make :
  ?dispatch_cost:int ->
  ?on_view:(Event.view -> unit) ->
  ?on_exec:(Event.exec -> unit) ->
  ?on_fault:(Event.fault -> unit) ->
  ?on_finish:(Event.outcome -> unit) ->
  string ->
  t
