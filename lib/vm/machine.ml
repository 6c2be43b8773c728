(** The virtual machine: a multithreaded interpreter for {!Dift_isa}
    programs with an instrumentation-tool interface, deterministic
    seeded scheduling, a replayable schedule/input log, cycle-cost
    accounting and whole-state checkpointing.

    This is the substitute for the dynamic binary instrumentation
    substrate (Pin/Valgrind) used by the paper: tools attached to the
    machine observe exactly the event stream a DBI plugin would.  The
    interpreter describes each executed instruction by refilling one
    reused {!Event.view} and allocates nothing per step; the boxed
    {!Event.exec} is built from the view only for tools (or a step-cost
    override) that ask for it. *)

open Dift_isa

type config = {
  seed : int;  (** scheduler PRNG seed *)
  quantum_min : int;  (** min instructions between preemption points *)
  quantum_max : int;
  max_steps : int;  (** step budget before [Out_of_steps] *)
  heap_padding : int;  (** slack added to every allocation *)
  check_bounds : bool;  (** fault on heap accesses outside live blocks *)
  schedule : (int * int) list option;
      (** replay mode: the switch list recorded by a previous run *)
  input_override : (int * int) list;
      (** replay-with-edits: pairs [(index, value)] replacing specific
          input words (the avoidance framework's "malformed request"
          patch) *)
  flip_steps : int list;
      (** dynamic branch instances (by step) whose outcome is inverted —
          the predicate-switching mechanism of §3.1 *)
  value_replacements : (int * int) list;
      (** [(step, v)]: the value produced at dynamic step [step] is
          replaced by [v] — the value-replacement mechanism of §3.1 *)
}

let default_config =
  {
    seed = 42;
    quantum_min = 20;
    quantum_max = 120;
    max_steps = 200_000_000;
    heap_padding = 0;
    check_bounds = false;
    schedule = None;
    input_override = [];
    flip_steps = [];
    value_replacements = [];
  }

type block_resume = Retry | Advance

type status =
  | Runnable
  | Blocked of block_resume
  | Finished

type activation = {
  serial : int;
  loc0 : Loc.t;  (** location of register 0 of this activation *)
  func : Func.t;
  mutable pc : int;
  regs : int array;
  ret_dst : Reg.t option;
  caller : activation option;
}

type thread = {
  tid : int;
  mutable act : activation;
  mutable status : status;
}

type mutex = { mutable owner : int option; mutable waiters : int list }

type barrier = {
  mutable parties : int;
  mutable arrived : int;
  mutable waiting : int list;
}

type t = {
  program : Program.t;
  config : config;
  mem : Memory.t;
  mutable threads : thread list;  (** in spawn order *)
  mutable next_tid : int;
  mutable next_serial : int;
  mutexes : (int, mutex) Hashtbl.t;
  barriers : (int, barrier) Hashtbl.t;
  input : int array;
  mutable input_pos : int;
  mutable rev_output : (int * int) list;  (** (step, value) *)
  mutable step_count : int;
  mutable cycles : int;
  mutable tools : Tool.t list;
  rng : Random.State.t;
  mutable current : int;  (** tid currently scheduled *)
  mutable quantum_left : int;
  mutable rev_switches : (int * int) list;  (** (step, tid) choices *)
  mutable replay_sched : (int * int) list;  (** remaining switches *)
  mutable rev_inputs : (int * int * int) list;  (** (step, index, value) *)
  mutable stop_request : string option;
  mutable outcome : Event.outcome option;
  mutable dispatch_cycles : int;
      (** summed per-instruction dispatch cost of the attached tools *)
  mutable step_cost : (Event.exec -> int) option;
      (** base cost of executing one instruction, {!Cost.base_instr}
          unless overridden; replay harnesses override it to
          fast-forward log-applied (irrelevant) regions *)
  view : Event.view;
      (** the one description of the executing instruction, refilled
          in place every step and handed to every tool *)
  mutable cur_th : thread;
      (** the record of thread [current] once {!schedule} has resolved
          it, so a step needs no lookup in [threads] *)
  mutable spare_regs : int array array;
      (** register files of returned activations, [0 .. n_spare-1],
          reused by the next calls; no activation or checkpoint still
          refers to them *)
  mutable n_spare : int;
}

exception Replay_divergence of string

(* Every activation gets a fresh serial (shadow register locations
   are keyed by it); only its register file is recycled, zero-filled. *)
let fresh_activation m func ~ret_dst ~caller =
  let serial = m.next_serial in
  m.next_serial <- serial + 1;
  let regs =
    if m.n_spare = 0 then Array.make Reg.count 0
    else begin
      m.n_spare <- m.n_spare - 1;
      let r = m.spare_regs.(m.n_spare) in
      Array.fill r 0 Reg.count 0;
      r
    end
  in
  {
    serial;
    loc0 = Loc.reg ~frame:serial Reg.r0;
    func;
    pc = 0;
    regs;
    ret_dst;
    caller;
  }

(* Hand the register file of an activation that has returned, and is
   referenced by nothing any more, to the next call. *)
let recycle_regs m regs =
  if m.n_spare = Array.length m.spare_regs then begin
    let a = Array.make (max 8 (2 * m.n_spare)) [||] in
    Array.blit m.spare_regs 0 a 0 m.n_spare;
    m.spare_regs <- a
  end;
  m.spare_regs.(m.n_spare) <- regs;
  m.n_spare <- m.n_spare + 1

let create ?(config = default_config) program ~input =
  let input =
    if config.input_override = [] then input
    else begin
      let a = Array.copy input in
      List.iter
        (fun (i, v) -> if i >= 0 && i < Array.length a then a.(i) <- v)
        config.input_override;
      a
    end
  in
  let main = Program.find program (Program.entry program) in
  let main_thread =
    {
      tid = 0;
      act =
        {
          serial = 0;
          loc0 = Loc.reg ~frame:0 Reg.r0;
          func = main;
          pc = 0;
          regs = Array.make Reg.count 0;
          ret_dst = None;
          caller = None;
        };
      status = Runnable;
    }
  in
  let view = Event.view_create ~func:main ~instr:Instr.Halt in
  (* room for the largest read set: an indirect call's arguments and
     its target register *)
  view.v_reads <- Array.make (Reg.count + 1) 0;
  view.v_writes <- Array.make (Reg.count + 1) 0;
  let m =
    {
      program;
      config;
      mem = Memory.create ~padding:config.heap_padding ();
      threads = [ main_thread ];
      next_tid = 1;
      next_serial = 1;
      mutexes = Hashtbl.create 16;
      barriers = Hashtbl.create 16;
      input;
      input_pos = 0;
      rev_output = [];
      step_count = 0;
      cycles = 0;
      tools = [];
      rng = Random.State.make [| config.seed |];
      current = 0;
      quantum_left = 0;
      rev_switches = [];
      replay_sched = (match config.schedule with Some s -> s | None -> []);
      rev_inputs = [];
      stop_request = None;
      outcome = None;
      dispatch_cycles = 0;
      step_cost = None;
      view;
      cur_th = main_thread;
      spare_regs = [||];
      n_spare = 0;
    }
  in
  m

let attach m tool =
  m.tools <- m.tools @ [ tool ];
  m.dispatch_cycles <- m.dispatch_cycles + tool.Tool.dispatch_cost

(** Override the per-instruction base cost (replay fast-forwarding). *)
let set_step_cost m f = m.step_cost <- Some f

(** Charge extra modelled cycles (used by tools for their overhead). *)
let charge m n = m.cycles <- m.cycles + n

let program m = m.program
let memory m = m.mem
let cycles m = m.cycles
let steps m = m.step_count

(** Program output, oldest first, as [(step, value)] pairs. *)
let output m = List.rev m.rev_output

let output_values m = List.map snd (output m)

(** The recorded scheduling choices, oldest first. *)
let schedule_log m = List.rev m.rev_switches

(** The recorded input reads, oldest first: [(step, index, value)]. *)
let input_log m = List.rev m.rev_inputs

(** Ask the machine to stop after the current instruction; the run's
    outcome becomes [Stopped reason].  For tools such as the attack
    detector. *)
let request_stop m reason =
  if m.stop_request = None then m.stop_request <- Some reason

let thread m tid = List.find_opt (fun t -> t.tid = tid) m.threads

let is_replay m = Option.is_some m.config.schedule

(* -- state fingerprinting (for replay determinism tests) -------------- *)

(** A hash of the externally observable machine state: memory contents
    and program output.  Two runs with equal fingerprints behaved
    identically as far as the program semantics is concerned. *)
let fingerprint m =
  Hashtbl.hash (Memory.cells m.mem, List.rev m.rev_output, m.input_pos)

(* -- operand evaluation ------------------------------------------------ *)

(* [Loc.reg ~frame:act.serial r] without the calls: a frame's register
   locations are [loc0 + 2 * index]. *)
let reg_loc act (r : Reg.t) = act.loc0 + ((r :> int) lsl 1)

(* Append to the read / write set of the view being filled.  The
   scratch arrays have room for [Reg.count + 1] locations (see
   {!create}), the most one instruction touches: an indirect call's
   arguments plus its target register. *)
let add_read (v : Event.view) loc =
  v.v_reads.(v.v_nreads) <- loc;
  v.v_nreads <- v.v_nreads + 1

let add_write (v : Event.view) loc =
  v.v_writes.(v.v_nwrites) <- loc;
  v.v_nwrites <- v.v_nwrites + 1

(* [Loc.mem addr] without the call, for an address known to be
   non-negative. *)
let mem_loc addr = addr lsl 1

(* The value of an operand; a register operand joins the read set. *)
let operand v act = function
  | Operand.Imm n -> n
  | Operand.Reg r ->
      add_read v (reg_loc act r);
      act.regs.((r :> int))

(* Value replacement (§3.1): substitute the value produced at a chosen
   dynamic step. *)
let substitute m v =
  match m.config.value_replacements with
  | [] -> v
  | reps -> (
      match List.assoc_opt m.step_count reps with Some v' -> v' | None -> v)

(* -- event emission ---------------------------------------------------- *)

type step_result =
  | Executed
  | Did_block  (** thread could not proceed; nothing was emitted *)

(* Start the view of instruction [ins], about to run at [th]'s pc: the
   sets are emptied and every optional field takes its "none" value,
   so each case below fills only what its instruction has. *)
let open_view m th ins =
  let v = m.view in
  v.v_step <- m.step_count;
  v.v_tid <- th.tid;
  (* the function changes only on calls and returns: skip the write
     barrier otherwise *)
  if v.v_func != th.act.func then v.v_func <- th.act.func;
  v.v_pc <- th.act.pc;
  v.v_instr <- ins;
  v.v_nreads <- 0;
  v.v_nwrites <- 0;
  v.v_addr <- -1;
  v.v_next_pc <- -1;
  v.v_input_index <- -1;
  v.v_value <- 0;
  v

(* Hand the view to every tool.  The first exec tool of the step has
   the boxed record built; the rest of the step shares it. *)
let rec emit v = function
  | [] -> ()
  | (t : Tool.t) :: rest -> (
      match t.on_instr with
      | View f ->
          f v;
          emit v rest
      | Exec g ->
          let e = Event.view_to_exec v in
          g e;
          emit_exec v e rest)

and emit_exec v e = function
  | [] -> ()
  | (t : Tool.t) :: rest ->
      (match t.on_instr with View f -> f v | Exec g -> g e);
      emit_exec v e rest

(* Close the step the view describes: count it, charge it, move the
   thread's pc to [next_pc] (a negative [next_pc] — control leaves the
   function — leaves the pc to the caller) and hand the view to the
   tools.  A step-cost override sees the boxed record, which the exec
   tools then share. *)
let commit m act v ~next_pc =
  v.Event.v_next_pc <- next_pc;
  m.step_count <- m.step_count + 1;
  if next_pc >= 0 then act.pc <- next_pc;
  (match m.step_cost with
  | None ->
      m.cycles <- m.cycles + Cost.base_instr + m.dispatch_cycles;
      emit v m.tools
  | Some f ->
      let e = Event.view_to_exec v in
      m.cycles <- m.cycles + f e + m.dispatch_cycles;
      emit_exec v e m.tools);
  Executed

(* -- faults ------------------------------------------------------------ *)

(* Every call site runs right after the faulting instruction's event
   was emitted (and the step counter advanced), so the faulting
   instance is [step_count - 1]. *)
let fault m th kind =
  let f =
    {
      Event.kind;
      at_step = m.step_count - 1;
      at_tid = th.tid;
      at_func = th.act.func.Func.name;
      at_pc = th.act.pc;
    }
  in
  List.iter (fun (t : Tool.t) -> t.Tool.on_fault f) m.tools;
  m.outcome <- Some (Event.Faulted f)

(* -- thread completion ------------------------------------------------- *)

let finish_thread m th =
  th.status <- Finished;
  (* Joiners blocked on this thread retry their Join and now succeed.
     Only threads blocked *at a Join instruction* are woken; lock and
     barrier waiters keep waiting for their own wake conditions. *)
  List.iter
    (fun t ->
      match t.status with
      | Blocked Retry -> (
          match Func.instr t.act.func t.act.pc with
          | Instr.Sys (Instr.Join _) -> t.status <- Runnable
          | _ -> ())
      | Blocked Advance | Runnable | Finished -> ())
    m.threads

(* -- instruction execution --------------------------------------------- *)

(* Wakes every thread blocked in Retry mode; used after unlocks.  The
   woken threads re-attempt their blocking instruction when next
   scheduled and re-block if the condition still does not hold.  This
   models contended acquisition and keeps wake bookkeeping simple. *)
let wake_retriers m tids =
  List.iter
    (fun t ->
      if List.mem t.tid tids then
        match t.status with
        | Blocked Retry -> t.status <- Runnable
        | Blocked Advance | Runnable | Finished -> ())
    m.threads

let get_mutex m id =
  match Hashtbl.find_opt m.mutexes id with
  | Some mu -> mu
  | None ->
      let mu = { owner = None; waiters = [] } in
      Hashtbl.replace m.mutexes id mu;
      mu

let get_barrier m id =
  match Hashtbl.find_opt m.barriers id with
  | Some b -> b
  | None ->
      let b = { parties = 0; arrived = 0; waiting = [] } in
      Hashtbl.replace m.barriers id b;
      b

(* A memory access at [addr] faults when the address is negative or,
   with bounds checking on, inside the heap but outside a live
   block. *)
let out_of_bounds m addr =
  addr < 0
  || m.config.check_bounds
     && Memory.in_heap m.mem addr
     && Option.is_none (Memory.block_of m.mem addr)

(* Close a step that faults: the pc stays on the faulting
   instruction. *)
let commit_fault m th act v kind =
  let r = commit m act v ~next_pc:act.pc in
  fault m th kind;
  r

(* Call [callee] from [act]: the arguments are copied into a fresh
   activation, appended pairwise to the read (caller register) and
   write (callee register) sets — tools rely on that alignment — and
   the thread moves into the callee. *)
let call m th act v callee ~ret_dst =
  act.pc <- act.pc + 1;
  let callee_act = fresh_activation m callee ~ret_dst ~caller:(Some act) in
  for i = 0 to callee.Func.arity - 1 do
    callee_act.regs.(i) <- act.regs.(i);
    add_read v (reg_loc act (Reg.make i));
    add_write v (reg_loc callee_act (Reg.make i))
  done;
  th.act <- callee_act

(* Executes one instruction of [th].  Returns [Did_block] if the thread
   must wait (nothing emitted, pc unchanged), otherwise fills the
   machine's view, advances state and emits the view.  Sets
   [m.outcome] on halting/faulting. *)
let rec exec_instr m th =
  let act = th.act in
  let ins = act.func.Func.body.(act.pc) in
  let v = open_view m th ins in
  match ins with
  | Instr.Nop -> commit m act v ~next_pc:(act.pc + 1)
  | Instr.Mov (d, s) ->
      let x = substitute m (operand v act s) in
      act.regs.((d :> int)) <- x;
      add_write v (reg_loc act d);
      v.v_value <- x;
      commit m act v ~next_pc:(act.pc + 1)
  | Instr.Binop (op, d, a, b) ->
      let va = operand v act a in
      let vb = operand v act b in
      (* the faulting event is emitted first, so slicing can start from
         it *)
      if Instr.alu_faults op vb then commit_fault m th act v Event.Div_by_zero
      else begin
        let x = substitute m (Instr.eval_alu_unchecked op va vb) in
        act.regs.((d :> int)) <- x;
        add_write v (reg_loc act d);
        v.v_value <- x;
        commit m act v ~next_pc:(act.pc + 1)
      end
  | Instr.Cmp (op, d, a, b) ->
      let va = operand v act a in
      let vb = operand v act b in
      let x = substitute m (Instr.eval_cmp op va vb) in
      act.regs.((d :> int)) <- x;
      add_write v (reg_loc act d);
      v.v_value <- x;
      commit m act v ~next_pc:(act.pc + 1)
  | Instr.Load (d, base, off) ->
      let addr = operand v act base + off in
      if out_of_bounds m addr then
        commit_fault m th act v (Event.Out_of_bounds addr)
      else begin
        let x = substitute m (Memory.read m.mem addr) in
        act.regs.((d :> int)) <- x;
        add_read v (mem_loc addr);
        add_write v (reg_loc act d);
        v.v_addr <- addr;
        v.v_value <- x;
        commit m act v ~next_pc:(act.pc + 1)
      end
  | Instr.Store (src, base, off) ->
      let vs = operand v act src in
      let addr = operand v act base + off in
      if out_of_bounds m addr then
        commit_fault m th act v (Event.Out_of_bounds addr)
      else begin
        let vs = substitute m vs in
        Memory.write m.mem addr vs;
        add_write v (mem_loc addr);
        v.v_addr <- addr;
        v.v_value <- vs;
        commit m act v ~next_pc:(act.pc + 1)
      end
  | Instr.Jmp t -> commit m act v ~next_pc:t
  | Instr.Br (c, t, f) ->
      let x = operand v act c in
      let taken = if x <> 0 then t else f in
      let taken =
        match m.config.flip_steps with
        | [] -> taken
        | flips ->
            if List.mem m.step_count flips then if taken = t then f else t
            else taken
      in
      v.v_value <- x;
      commit m act v ~next_pc:taken
  | Instr.Call (fname, ret_dst) ->
      call m th act v (Program.find m.program fname) ~ret_dst;
      commit m act v ~next_pc:(-1)
  | Instr.Icall (fop, ret_dst) -> (
      (* reads: the arguments in order, then the target operand's
         register — so the target joins the read set after the call *)
      let fid =
        match fop with
        | Operand.Imm n -> n
        | Operand.Reg r -> act.regs.((r :> int))
      in
      v.v_value <- fid;
      match Program.func_of_id m.program fid with
      | None ->
          ignore (operand v act fop);
          commit_fault m th act v (Event.Invalid_icall fid)
      | Some callee ->
          call m th act v callee ~ret_dst;
          ignore (operand v act fop);
          commit m act v ~next_pc:(-1))
  | Instr.Ret src -> (
      let x = match src with Some o -> operand v act o | None -> 0 in
      v.v_value <- x;
      match act.caller with
      | None ->
          let r = commit m act v ~next_pc:act.pc in
          finish_thread m th;
          r
      | Some caller ->
          (match act.ret_dst with
          | Some d ->
              caller.regs.((d :> int)) <- x;
              add_write v (reg_loc caller d)
          | None -> ());
          let r = commit m act v ~next_pc:act.pc in
          th.act <- caller;
          recycle_regs m act.regs;
          r)
  | Instr.Halt ->
      let r = commit m act v ~next_pc:act.pc in
      m.outcome <- Some Event.Halted;
      r
  | Instr.Sys s -> exec_syscall m th act v s

and exec_syscall m th act v s =
  let next = act.pc + 1 in
  match s with
  | Instr.Read d ->
      let idx = m.input_pos in
      let x =
        if idx < Array.length m.input then begin
          m.input_pos <- idx + 1;
          v.v_input_index <- idx;
          m.rev_inputs <- (m.step_count, idx, m.input.(idx)) :: m.rev_inputs;
          m.input.(idx)
        end
        else -1
      in
      act.regs.((d :> int)) <- x;
      add_write v (reg_loc act d);
      v.v_value <- x;
      commit m act v ~next_pc:next
  | Instr.Write o ->
      let x = operand v act o in
      m.rev_output <- (m.step_count, x) :: m.rev_output;
      v.v_value <- x;
      commit m act v ~next_pc:next
  | Instr.Spawn (d, fname, argo) ->
      let x = operand v act argo in
      let callee = Program.find m.program fname in
      let new_act = fresh_activation m callee ~ret_dst:None ~caller:None in
      new_act.regs.(0) <- x;
      let tid = m.next_tid in
      m.next_tid <- tid + 1;
      m.threads <- m.threads @ [ { tid; act = new_act; status = Runnable } ];
      act.regs.((d :> int)) <- tid;
      add_write v (reg_loc act d);
      add_write v new_act.loc0;
      v.v_value <- tid;
      commit m act v ~next_pc:next
  | Instr.Join o -> (
      let x = operand v act o in
      match thread m x with
      | Some t when t.status <> Finished ->
          th.status <- Blocked Retry;
          Did_block
      | Some _ | None ->
          v.v_value <- x;
          commit m act v ~next_pc:next)
  | Instr.Lock o -> (
      let x = operand v act o in
      let mu = get_mutex m x in
      v.v_value <- x;
      match mu.owner with
      | None ->
          mu.owner <- Some th.tid;
          commit m act v ~next_pc:next
      | Some owner when owner = th.tid -> commit m act v ~next_pc:next
      | Some _ ->
          mu.waiters <- mu.waiters @ [ th.tid ];
          th.status <- Blocked Retry;
          Did_block)
  | Instr.Unlock o ->
      let x = operand v act o in
      let mu = get_mutex m x in
      if mu.owner = Some th.tid then begin
        mu.owner <- None;
        let ws = mu.waiters in
        mu.waiters <- [];
        wake_retriers m ws
      end;
      v.v_value <- x;
      commit m act v ~next_pc:next
  | Instr.Barrier_init (ido, po) ->
      let id = operand v act ido in
      let parties = operand v act po in
      let b = get_barrier m id in
      b.parties <- parties;
      b.arrived <- 0;
      v.v_value <- id;
      commit m act v ~next_pc:next
  | Instr.Barrier ido ->
      let id = operand v act ido in
      let b = get_barrier m id in
      b.arrived <- b.arrived + 1;
      v.v_value <- id;
      if b.arrived >= b.parties then begin
        b.arrived <- 0;
        let ws = b.waiting in
        b.waiting <- [];
        (* Barrier waiters have already counted: wake them *past* the
           barrier instruction. *)
        List.iter
          (fun wtid ->
            match thread m wtid with
            | Some t -> (
                match t.status with
                | Blocked Advance ->
                    t.act.pc <- t.act.pc + 1;
                    t.status <- Runnable
                | Blocked Retry | Runnable | Finished -> ())
            | None -> ())
          ws;
        commit m act v ~next_pc:next
      end
      else begin
        b.waiting <- b.waiting @ [ th.tid ];
        th.status <- Blocked Advance;
        (* The arrival itself is observable: emit the event, but leave
           the thread blocked at this pc (it is advanced on release). *)
        commit m act v ~next_pc:act.pc
      end
  | Instr.Alloc (d, so) ->
      let size = operand v act so in
      let base = Memory.alloc m.mem size in
      act.regs.((d :> int)) <- base;
      add_write v (reg_loc act d);
      v.v_value <- base;
      commit m act v ~next_pc:next
  | Instr.Free o -> (
      let x = operand v act o in
      v.v_value <- x;
      match Memory.free m.mem x with
      | Ok () -> commit m act v ~next_pc:next
      | Error `Invalid_free -> commit_fault m th act v (Event.Invalid_free x))
  | Instr.Tid d ->
      act.regs.((d :> int)) <- th.tid;
      add_write v (reg_loc act d);
      v.v_value <- th.tid;
      commit m act v ~next_pc:next
  | Instr.Check o ->
      let x = operand v act o in
      v.v_value <- x;
      if x = 0 then commit_fault m th act v Event.Check_failed
      else commit m act v ~next_pc:next
  | Instr.Mark (_, o) ->
      v.v_value <- operand v act o;
      commit m act v ~next_pc:next
  | Instr.Exit ->
      let r = commit m act v ~next_pc:act.pc in
      finish_thread m th;
      r

(* -- scheduling -------------------------------------------------------- *)

let is_runnable t =
  match t.status with Runnable -> true | Blocked _ | Finished -> false

let runnable_threads m = List.filter is_runnable m.threads

let record_switch m tid =
  m.rev_switches <- (m.step_count, tid) :: m.rev_switches;
  m.current <- tid;
  m.quantum_left <-
    m.config.quantum_min
    + Random.State.int m.rng
        (max 1 (m.config.quantum_max - m.config.quantum_min))

(* Point [m.cur_th] at thread [m.current] and tell whether it can run;
   the thread list is walked only after a switch. *)
let current_runnable m =
  (m.cur_th.tid = m.current
  ||
  match thread m m.current with
  | Some t ->
      m.cur_th <- t;
      true
  | None -> false)
  && is_runnable m.cur_th

(* Choose the thread to run next, leaving it in [m.cur_th]; [false]
   when none can run.  In recording mode: seeded random choice among
   runnables, recorded for replay.  In replay mode: follow the
   recorded switch list. *)
let schedule m =
  if is_replay m then begin
    (* Apply all switches recorded at this step. *)
    let rec apply () =
      match m.replay_sched with
      | (s, tid) :: rest when s = m.step_count ->
          m.current <- tid;
          m.replay_sched <- rest;
          apply ()
      | _ -> ()
    in
    apply ();
    current_runnable m
    ||
    (* The recorded thread cannot run here: in a faithful replay
       this only happens transiently when the recording switched
       away at the same step; fall back to any runnable thread
       only if the log has a future switch, otherwise diverge. *)
    match runnable_threads m with
    | [] -> false
    | t :: _ -> (
        match m.replay_sched with
        | _ :: _ ->
            m.cur_th <- t;
            true
        | [] ->
            raise
              (Replay_divergence
                 (Fmt.str "no runnable thread matches log at step %d"
                    m.step_count)))
  end
  else begin
    if m.quantum_left <= 0 || not (current_runnable m) then begin
      match runnable_threads m with
      | [] -> ()
      | rs ->
          let pick = List.nth rs (Random.State.int m.rng (List.length rs)) in
          record_switch m pick.tid
    end;
    current_runnable m
  end

(* -- main loop --------------------------------------------------------- *)

let finish m outcome =
  m.outcome <- Some outcome;
  List.iter (fun (t : Tool.t) -> t.Tool.on_finish outcome) m.tools;
  outcome

let run m =
  if m.outcome <> None then invalid_arg "Machine.run: already ran";
  (* Initial scheduling choice. *)
  if not (is_replay m) then record_switch m 0;
  let rec loop () =
    match m.outcome with
    | Some o -> o
    | None -> (
        if m.step_count >= m.config.max_steps then Event.Out_of_steps
        else
          match m.stop_request with
          | Some r -> Event.Stopped r
          | None ->
              if schedule m then begin
                match exec_instr m m.cur_th with
                | Executed ->
                    m.quantum_left <- m.quantum_left - 1;
                    loop ()
                | Did_block -> loop ()
              end
              else if List.for_all (fun t -> t.status = Finished) m.threads
              then Event.Halted
              else Event.Deadlocked)
  in
  let outcome = loop () in
  finish m outcome

(* -- checkpointing ------------------------------------------------------ *)

type checkpoint = {
  cp_mem : Memory.t;
  cp_threads : thread list;
  cp_next_tid : int;
  cp_next_serial : int;
  cp_mutexes : (int, mutex) Hashtbl.t;
  cp_barriers : (int, barrier) Hashtbl.t;
  cp_input_pos : int;
  cp_rev_output : (int * int) list;
  cp_step : int;
  cp_words : int;  (** memory words captured, for cost accounting *)
}

let rec copy_activation cache act =
  match Hashtbl.find_opt cache act.serial with
  | Some a -> a
  | None ->
      let caller = Option.map (copy_activation cache) act.caller in
      let a = { act with regs = Array.copy act.regs; caller } in
      Hashtbl.replace cache act.serial a;
      a

let copy_threads threads =
  let cache = Hashtbl.create 64 in
  List.map
    (fun t -> { t with act = copy_activation cache t.act })
    threads

(** Capture the entire mutable state of the machine.  The modelled cost
    ({!Cost.checkpoint_word} per live memory word) is charged to the
    machine's cycle counter. *)
let checkpoint m =
  let words = Memory.footprint m.mem in
  charge m (words * Cost.checkpoint_word);
  {
    cp_mem = Memory.snapshot m.mem;
    cp_threads = copy_threads m.threads;
    cp_next_tid = m.next_tid;
    cp_next_serial = m.next_serial;
    cp_mutexes =
      (let h = Hashtbl.create 16 in
       Hashtbl.iter
         (fun k mu -> Hashtbl.replace h k { mu with owner = mu.owner })
         m.mutexes;
       h);
    cp_barriers =
      (let h = Hashtbl.create 16 in
       Hashtbl.iter
         (fun k b -> Hashtbl.replace h k { b with parties = b.parties })
         m.barriers;
       h);
    cp_input_pos = m.input_pos;
    cp_rev_output = m.rev_output;
    cp_step = m.step_count;
    cp_words = words;
  }

(** Build a fresh machine whose state is the checkpoint's.  The new
    machine shares nothing mutable with the checkpoint (it can be
    restored from repeatedly) and may use a different [config] — e.g.
    replay mode with a recorded schedule suffix. *)
let of_checkpoint ?(config = default_config) program ~input cp =
  let m = create ~config program ~input in
  Memory.restore m.mem ~from:cp.cp_mem;
  m.threads <- copy_threads cp.cp_threads;
  (* the cached current thread must be one of the copies *)
  m.cur_th <- List.hd m.threads;
  m.next_tid <- cp.cp_next_tid;
  m.next_serial <- cp.cp_next_serial;
  Hashtbl.reset m.mutexes;
  Hashtbl.iter
    (fun k mu -> Hashtbl.replace m.mutexes k { mu with owner = mu.owner })
    cp.cp_mutexes;
  Hashtbl.reset m.barriers;
  Hashtbl.iter
    (fun k b -> Hashtbl.replace m.barriers k { b with parties = b.parties })
    cp.cp_barriers;
  m.input_pos <- cp.cp_input_pos;
  m.rev_output <- cp.cp_rev_output;
  m.step_count <- cp.cp_step;
  m

let checkpoint_words cp = cp.cp_words
let checkpoint_step cp = cp.cp_step
