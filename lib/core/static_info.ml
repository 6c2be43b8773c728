(** Per-function static analyses, computed lazily and cached: CFG,
    postdominators, and intra-block reaching-definition queries used by
    ONTRAC's static dependence elimination. *)

open Dift_isa

type func_info = {
  cfg : Cfg.t;
  pd : Postdom.t;
  func : Func.t;
}

type t = {
  program : Program.t;
  cache : (string, func_info) Hashtbl.t;
  mutable last : func_info;
      (** the function {!ipdom} answered for last: the engine asks at
          every tainted branch, almost always about the function it
          asked about before, so a physical-equality test on [Func.t]
          replaces the hashtable probe by name *)
}

let analyse func =
  let cfg = Cfg.build func in
  { cfg; pd = Postdom.compute cfg; func }

(* [last] before the first query: a function no program contains, so
   creating an analysis analyses nothing *)
let no_func = analyse (Func.make ~name:"" ~arity:0 [| Instr.Halt |])
let create program = { program; cache = Hashtbl.create 16; last = no_func }

let info t fname =
  match Hashtbl.find_opt t.cache fname with
  | Some i -> i
  | None ->
      let i = analyse (Program.find t.program fname) in
      Hashtbl.replace t.cache fname i;
      i

let cfg t fname = (info t fname).cfg
let pd t fname = (info t fname).pd
let program t = t.program

(** Immediate postdominator of instruction [pc] in [func]. *)
let ipdom t (func : Func.t) pc =
  let i =
    if t.last.func == func then t.last
    else begin
      let i = info t func.Func.name in
      t.last <- i;
      i
    end
  in
  Postdom.ipdom i.pd pc

let defines_reg instr r =
  match Instr.def instr with
  | Some d -> Reg.equal d r
  | None -> false

(** The statically known reaching definition of register [r] at use
    site [pc], searching only within [pc]'s own basic block.  Returns
    [Some def_pc] when an earlier instruction of the same block defines
    [r] (in straight-line code that definition always reaches), [None]
    when the definition comes from outside the block. *)
let reaching_def_in_block t fname ~pc ~reg =
  let i = info t fname in
  let block = Cfg.block_of i.cfg pc in
  let first, _ = Cfg.block_range i.cfg block in
  let rec search p =
    if p < first then None
    else if defines_reg (Func.instr i.func p) reg then Some p
    else search (p - 1)
  in
  search (pc - 1)

(** The last definition of register [r] in block [block] of [fname], if
    any — used by the trace-level (multi-block) elimination to check
    whether a cross-block register dependence is inferable along a hot
    edge. *)
let block_last_def t fname ~block ~reg =
  let i = info t fname in
  let first, last = Cfg.block_range i.cfg block in
  let rec search p =
    if p < first then None
    else if defines_reg (Func.instr i.func p) reg then Some p
    else search (p - 1)
  in
  search (last - 1)

let block_of t fname pc = Cfg.block_of (cfg t fname) pc
