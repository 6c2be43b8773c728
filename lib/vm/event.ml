(** Events observed by instrumentation tools: the reused, array-backed
    {!view} the machine fills once per executed instruction, and the
    boxed {!exec} record built from it for tools that keep events. *)

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
  at_step : int;
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
  | Stopped of string  (** a tool requested the stop (e.g. attack detected) *)

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
      (** pc the thread continues at inside the same function, or [-1]
          when control leaves the function (call/ret/halt/exit) *)
  input_index : int;  (** index of the input word consumed, or [-1] *)
  value : int;  (** primary value produced/written, or [0] *)
}

let is_branch e = match e.instr with Instr.Br _ -> true | _ -> false

(* A mutable, array-backed projection of [exec].  The read/write sets
   live in reusable scratch arrays ([v_nreads]/[v_nwrites] valid
   prefixes) so the machine and the wire decoders refill one view per
   event without allocating. *)
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

let view_create ~func ~instr =
  {
    v_step = 0;
    v_tid = 0;
    v_func = func;
    v_pc = 0;
    v_instr = instr;
    v_reads = Array.make 8 0;
    v_nreads = 0;
    v_writes = Array.make 8 0;
    v_nwrites = 0;
    v_addr = -1;
    v_next_pc = -1;
    v_input_index = -1;
    v_value = 0;
  }

(* Copy a loc list into [arr] from index [i]; returns the length
   filled.  A static recursion: no closure, no tuple per refill. *)
let rec blit_locs (arr : Loc.t array) i = function
  | [] -> i
  | l :: rest ->
      arr.(i) <- l;
      blit_locs arr (i + 1) rest

(* A longer replacement for a scratch array too short for [n] locs. *)
let grown arr n = Array.make (max n ((2 * Array.length arr) + 4)) 0

let view_fill v (e : exec) =
  v.v_step <- e.step;
  v.v_tid <- e.tid;
  v.v_func <- e.func;
  v.v_pc <- e.pc;
  v.v_instr <- e.instr;
  let nr = List.length e.reads and nw = List.length e.writes in
  if Array.length v.v_reads < nr then v.v_reads <- grown v.v_reads nr;
  if Array.length v.v_writes < nw then v.v_writes <- grown v.v_writes nw;
  v.v_nreads <- blit_locs v.v_reads 0 e.reads;
  v.v_nwrites <- blit_locs v.v_writes 0 e.writes;
  v.v_addr <- e.addr;
  v.v_next_pc <- e.next_pc;
  v.v_input_index <- e.input_index;
  v.v_value <- e.value

let view_of_exec e =
  let v = view_create ~func:e.func ~instr:e.instr in
  view_fill v e;
  v

let rec locs_from arr i n =
  if i >= n then [] else arr.(i) :: locs_from arr (i + 1) n

(* The loc list of a scratch-array prefix: the short sets of all but
   call instructions are built in one allocation. *)
let locs_of (arr : Loc.t array) n =
  match n with
  | 0 -> []
  | 1 -> [ arr.(0) ]
  | 2 -> [ arr.(0); arr.(1) ]
  | _ -> locs_from arr 0 n

(* A fresh boxed record: the loc lists are built from the array
   prefixes, so it is safe to retain past the next refill. *)
let view_to_exec v =
  {
    step = v.v_step;
    tid = v.v_tid;
    func = v.v_func;
    pc = v.v_pc;
    instr = v.v_instr;
    reads = locs_of v.v_reads v.v_nreads;
    writes = locs_of v.v_writes v.v_nwrites;
    addr = v.v_addr;
    next_pc = v.v_next_pc;
    input_index = v.v_input_index;
    value = v.v_value;
  }

let pp_fault_kind ppf = function
  | Div_by_zero -> Fmt.string ppf "division by zero"
  | Invalid_icall id -> Fmt.pf ppf "invalid indirect call (id %d)" id
  | Check_failed -> Fmt.string ppf "check failed"
  | Invalid_free a -> Fmt.pf ppf "invalid free (addr %d)" a
  | Out_of_bounds a -> Fmt.pf ppf "out-of-bounds access (addr %d)" a

let pp_fault ppf f =
  Fmt.pf ppf "%a at step %d (tid %d, %s:%d)" pp_fault_kind f.kind f.at_step
    f.at_tid f.at_func f.at_pc

let pp_outcome ppf = function
  | Halted -> Fmt.string ppf "halted"
  | Faulted f -> Fmt.pf ppf "faulted: %a" pp_fault f
  | Deadlocked -> Fmt.string ppf "deadlocked"
  | Out_of_steps -> Fmt.string ppf "out of steps"
  | Stopped r -> Fmt.pf ppf "stopped: %s" r

let pp_exec ppf e =
  Fmt.pf ppf "#%d t%d %s:%d %a" e.step e.tid e.func.Func.name e.pc Instr.pp
    e.instr
