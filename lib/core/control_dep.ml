(** Online detection of dynamic control dependence (after Xin & Zhang,
    ISSTA'07).

    Each thread carries a stack of call frames; each frame carries a
    stack of open control regions.  Executing a branch at step [s]
    opens a region that closes when control reaches the branch's
    immediate postdominator.  The dynamic control parent of an executed
    instruction is the branch of the innermost open region, or — when
    no region is open — the call (or spawn) event that created the
    frame, which threads control dependence across function and thread
    boundaries. *)

open Dift_isa
open Dift_vm

type region = { branch_step : int; branch_pc : int; close_at : int }

type frame = {
  mutable regions : region list;  (** innermost first *)
  inherited : int option;  (** call/spawn step that created the frame *)
}

type thread_state = { mutable frames : frame list (* innermost first *) }

type t = {
  static : Static_info.t;
  threads : (int, thread_state) Hashtbl.t;
  pending_spawn : (int, int) Hashtbl.t;  (** tid -> spawning step *)
}

let create static =
  { static; threads = Hashtbl.create 8; pending_spawn = Hashtbl.create 8 }

let thread_state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> ts
  | None ->
      let inherited = Hashtbl.find_opt t.pending_spawn tid in
      Hashtbl.remove t.pending_spawn tid;
      let ts = { frames = [ { regions = []; inherited } ] } in
      Hashtbl.replace t.threads tid ts;
      ts

let current_frame ts =
  match ts.frames with
  | f :: _ -> f
  | [] ->
      (* A thread that returned from its bottom frame but is observed
         again cannot happen; keep total anyway. *)
      let f = { regions = []; inherited = None } in
      ts.frames <- [ f ];
      f

(** Pop every region whose close point is the pc now being executed. *)
let close_regions frame pc =
  let rec go = function
    | r :: rest when r.close_at = pc -> go rest
    | rs -> rs
  in
  frame.regions <- go frame.regions

(** Process one event (must be called for every event, in order) and
    return the step number of the event's dynamic control parent, if
    any. *)
let process t (e : Event.exec) =
  let ts = thread_state t e.Event.tid in
  let frame = current_frame ts in
  close_regions frame e.Event.pc;
  let parent =
    match frame.regions with
    | r :: _ -> Some r.branch_step
    | [] -> frame.inherited
  in
  (match e.Event.instr with
  | Instr.Br (_, _, _) ->
      (* A new execution of the same static branch ends the region of
         the previous one (loop back edge): pop through it.  This also
         flushes regions left open by irregular jumps out of their
         body. *)
      let rec drop = function
        | r :: rest when r.branch_pc = e.Event.pc -> rest
        | _ :: rest when List.exists (fun r -> r.branch_pc = e.Event.pc) rest
          ->
            drop rest
        | rs -> rs
      in
      frame.regions <- drop frame.regions;
      let close_at = Static_info.ipdom t.static e.Event.func e.Event.pc in
      frame.regions <-
        { branch_step = e.Event.step; branch_pc = e.Event.pc; close_at }
        :: frame.regions
  | Instr.Call _ | Instr.Icall _ ->
      ts.frames <-
        { regions = []; inherited = Some e.Event.step } :: ts.frames
  | Instr.Ret _ -> (
      match ts.frames with
      | _ :: (_ :: _ as rest) -> ts.frames <- rest
      | [ _ ] | [] -> () (* bottom frame: thread is ending *))
  | Instr.Sys (Instr.Spawn _) ->
      (* e.value carries the new thread id. *)
      Hashtbl.replace t.pending_spawn e.Event.value e.Event.step
  | _ -> ());
  parent

(** Depth of open control regions for a thread (diagnostics/tests). *)
let open_regions t tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> 0
  | Some ts -> List.fold_left (fun a f -> a + List.length f.regions) 0 ts.frames
