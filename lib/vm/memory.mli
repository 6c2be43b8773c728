(** Sparse word-addressed memory with a bump heap allocator.

    Addresses below {!heap_base} form the static/global region, freely
    usable by programs.  [Sys Alloc] hands out blocks from the heap
    region and remembers their extents, which lets applications reason
    about heap overflows and lets the avoidance framework pad
    allocations (an environment patch in the sense of paper §3.2).

    Cells live in a page table, so reads and writes neither hash nor
    allocate once a page exists. *)

type block = { base : int; size : int; mutable live : bool }

type t

(** First heap address; everything below is the global region. *)
val heap_base : int

val create : ?padding:int -> unit -> t

(** Unwritten addresses read as zero. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** Allocate a block; padding (if configured) becomes part of the
    block, so small overflows land in it harmlessly. *)
val alloc : t -> int -> int

(** [free m base] releases a block; [Error] when [base] is not the
    base address of a live block. *)
val free : t -> int -> (unit, [ `Invalid_free ]) result

(** The live block containing an address, if any. *)
val block_of : t -> int -> block option

(** Is the address inside the allocated heap range? *)
val in_heap : t -> int -> bool

(** Number of addresses currently holding a non-zero value. *)
val footprint : t -> int

(** The non-zero cells, as [(address, value)] pairs in ascending
    address order. *)
val cells : t -> (int * int) list

(** Deep copy, for checkpointing. *)
val snapshot : t -> t

(** [restore m ~from] makes [m]'s cells, blocks and bump pointer a deep
    copy of [from]'s; [m] keeps its own padding. *)
val restore : t -> from:t -> unit
