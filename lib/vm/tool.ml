(** The instrumentation-tool interface.

    A tool is what a Pin/Valgrind plugin is to a real binary: a set of
    callbacks invoked by the machine as execution proceeds.  The
    per-instruction callback either sees the machine's reused view or
    receives the boxed record the machine builds from it.

    [dispatch_cost] is the per-instruction overhead the machine charges
    while this tool is attached.  Binary-instrumentation tools pay
    {!Cost.dbi_dispatch}; OS-level observers (checkpoint/logging, or a
    tracer that instruments selectively and charges itself) pass [0]. *)

type on_instr =
  | View of (Event.view -> unit)  (** sees the live view *)
  | Exec of (Event.exec -> unit)  (** receives the boxed record *)

type t = {
  name : string;
  dispatch_cost : int;
  on_instr : on_instr;
      (** called after each instruction's effects are applied *)
  on_fault : Event.fault -> unit;  (** called when the machine faults *)
  on_finish : Event.outcome -> unit;  (** called once, when the run ends *)
}

let make ?(dispatch_cost = Cost.dbi_dispatch) ?on_view ?on_exec
    ?(on_fault = fun _ -> ()) ?(on_finish = fun _ -> ()) name =
  let on_instr =
    match (on_view, on_exec) with
    | Some f, None -> View f
    | None, Some g -> Exec g
    | None, None -> View (fun _ -> ())
    | Some _, Some _ -> invalid_arg "Tool.make: both ~on_view and ~on_exec"
  in
  { name; dispatch_cost; on_instr; on_fault; on_finish }
