(** Per-function static analyses, computed lazily and cached: CFG,
    postdominators, and intra-block reaching-definition queries used
    by ONTRAC's static dependence elimination. *)

open Dift_isa

type t

val create : Program.t -> t
val cfg : t -> string -> Cfg.t
val pd : t -> string -> Postdom.t
val program : t -> Program.t

(** Immediate postdominator of instruction [pc] in a function of the
    program.  Asking about the same function as the previous call
    costs one physical-equality test and allocates nothing. *)
val ipdom : t -> Func.t -> int -> int

(** The statically known reaching definition of a register at a use
    site, searching only within the use's own basic block: [Some
    def_pc] when an earlier instruction of the same block defines it
    (in straight-line code that definition always reaches), [None]
    when the definition comes from outside the block. *)
val reaching_def_in_block : t -> string -> pc:int -> reg:Reg.t -> int option

(** The last definition of a register in a given block, if any — used
    by the trace-level (multi-block) elimination. *)
val block_last_def : t -> string -> block:int -> reg:Reg.t -> int option

(** Basic-block id of an instruction. *)
val block_of : t -> string -> int -> int
