(** The de-boxed forwarding wire; see the interface for the format.

    Layout notes.  A {!batch} is a struct-of-arrays of one lane per
    dynamic field plus a [desc] lane and a shared growable overflow
    area.  [desc] bit 0 selects the encoding: [1] is the frame-compact
    form ([desc lsr 1] is the activation-frame serial; the read/write
    sets reconstruct from the interned {!Site.row} as
    [frame * Site.frame_stride + off], with a Load's trailing memory
    read and a Store's memory write rebuilt from the [addr] lane), [0]
    is the explicit form ([desc lsr 1] indexes the overflow area:
    [nreads, nwrites, reads.., writes..] verbatim — call boundaries,
    faulting events, anything whose dynamic shape diverges from the
    static row).  The encoder verifies the compact shape element-wise
    per event, so decode is exact by construction, not by trust. *)

open Dift_isa
open Dift_vm

type batch = {
  b_site : int array;
  b_step : int array;
  b_tid : int array;
  b_addr : int array;
  b_value : int array;
  b_next_pc : int array;
  b_input : int array;
  b_desc : int array;
  mutable b_ovf : int array;
  mutable b_esc : Event.exec array;
      (** escape hatch: events {e foreign} to the interned program
          (hand-built streams whose [(func, pc, instr)] is not a real
          site) ride boxed here, referenced by a negative [desc].
          Machine streams never take it, so the steady state stays
          flat. *)
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_esc_n : int;
}

let batch_create ~events_per_batch =
  if events_per_batch < 1 then
    invalid_arg
      (Fmt.str "Codec.batch_create: events_per_batch = %d < 1"
         events_per_batch);
  let z () = Array.make events_per_batch 0 in
  {
    b_site = z ();
    b_step = z ();
    b_tid = z ();
    b_addr = z ();
    b_value = z ();
    b_next_pc = z ();
    b_input = z ();
    b_desc = z ();
    b_ovf = Array.make 64 0;
    b_esc = [||];
    b_n = 0;
    b_ovf_n = 0;
    b_esc_n = 0;
  }

let batch_capacity b = Array.length b.b_site
let batch_length b = b.b_n

let batch_clear b =
  b.b_n <- 0;
  b.b_ovf_n <- 0;
  if b.b_esc_n > 0 then begin
    (* drop the boxed references so a recycled batch does not pin them *)
    b.b_esc <- [||];
    b.b_esc_n <- 0
  end

(* -- encoding ----------------------------------------------------------- *)

type encoder = {
  e_table : Site.table;
  mutable e_func : Func.t;  (** last function seen (physical equality) *)
  mutable e_base : int;  (** its first site id *)
  e_scratch : Event.view;  (** boxed records are encoded through it *)
}

let encoder table =
  let r0 = Site.row table 0 in
  {
    e_table = table;
    e_func = r0.Site.s_func;
    e_base = Site.base table r0.Site.s_func.Func.name;
    e_scratch = Event.view_create ~func:r0.Site.s_func ~instr:r0.Site.s_instr;
  }

(* Site id of an event, or [-1] when the event is foreign to the
   table: unknown function name, pc out of range, or a function /
   instruction that is not physically the program's own (hand-built
   test streams).  Machine events carry the program's own [Func.t] and
   [Instr.t], so physical equality is the exact fidelity check, and in
   the steady state this is one add (the base lookup is cached on
   physical function identity; [min_int] caches an unknown name). *)
let site_of enc (v : Event.view) =
  if v.v_func != enc.e_func then begin
    enc.e_func <- v.v_func;
    enc.e_base <-
      (match Site.base_opt enc.e_table v.v_func.Func.name with
      | Some b -> b
      | None -> min_int)
  end;
  if enc.e_base = min_int || v.v_pc < 0 then -1
  else
    let site = enc.e_base + v.v_pc in
    if site >= Site.size enc.e_table then -1
    else
      let row = Site.row enc.e_table site in
      if row.Site.s_func == v.v_func && row.Site.s_instr == v.v_instr then site
      else -1

(* Walk the [j..n) prefix of a view's loc array against a row's static
   offsets, carrying [base], the first location of the activation
   frame found so far ([-1]: none yet); returns it, or [mismatch].  A
   register location [l] matches static offset [off] iff [l - off] is
   a non-negative multiple of the frame stride, the same one for every
   location — memory locations (even) can never match a register
   offset (odd).  [mem_last] expects one trailing memory location at
   [addr].  A static recursion with one division per event, so
   encoding allocates nothing and stays cheap. *)
let mismatch = -2

let rec walk_frame offs i (locs : Loc.t array) j n base ~mem_last ~addr =
  if i < Array.length offs then
    if j >= n then mismatch
    else
      let d = locs.(j) - offs.(i) in
      if
        if base >= 0 then d = base
        else d >= 0 && d mod Site.frame_stride = 0
      then walk_frame offs (i + 1) locs (j + 1) n d ~mem_last ~addr
      else mismatch
  else if j = n then if mem_last then mismatch else base
  else if j + 1 = n && mem_last && addr >= 0 && locs.(j) = addr lsl 1 then
    base
  else mismatch

(* The common activation-frame serial of the event's locations, when
   its dynamic read/write sets match the row's static shape exactly;
   [-1] otherwise (then the explicit encoding carries the sets
   verbatim). *)
let compact_frame (row : Site.row) (v : Event.view) =
  let addr = v.v_addr in
  let base =
    walk_frame row.Site.s_read_offs 0 v.v_reads 0 v.v_nreads (-1)
      ~mem_last:row.Site.s_mem_read ~addr
  in
  let base =
    if base = mismatch then base
    else
      walk_frame row.Site.s_write_offs 0 v.v_writes 0 v.v_nwrites base
        ~mem_last:row.Site.s_mem_write ~addr
  in
  if base = mismatch then -1
  else if base = -1 then 0
  else base / Site.frame_stride

let grow_ovf b need =
  if Array.length b.b_ovf < need then begin
    let a = Array.make (max need (2 * Array.length b.b_ovf)) 0 in
    Array.blit b.b_ovf 0 a 0 b.b_ovf_n;
    b.b_ovf <- a
  end

(** Append one event ([batch_length] must be under [batch_capacity]). *)
let encode_view enc b (v : Event.view) =
  let i = b.b_n in
  let site = site_of enc v in
  b.b_site.(i) <- site;
  b.b_step.(i) <- v.v_step;
  b.b_tid.(i) <- v.v_tid;
  b.b_addr.(i) <- v.v_addr;
  b.b_value.(i) <- v.v_value;
  b.b_next_pc.(i) <- v.v_next_pc;
  b.b_input.(i) <- v.v_input_index;
  (if site < 0 then begin
     (* foreign event: carry it boxed, desc = -(index + 1) *)
     let e = Event.view_to_exec v in
     let n = b.b_esc_n in
     if Array.length b.b_esc <= n then begin
       let a = Array.make (max 4 (2 * Array.length b.b_esc)) e in
       Array.blit b.b_esc 0 a 0 n;
       b.b_esc <- a
     end;
     b.b_esc.(n) <- e;
     b.b_esc_n <- n + 1;
     b.b_desc.(i) <- -(n + 1)
   end
   else
     let frame = compact_frame (Site.row enc.e_table site) v in
     if frame >= 0 then b.b_desc.(i) <- (frame lsl 1) lor 1
     else begin
       let nr = v.v_nreads and nw = v.v_nwrites in
       let off = b.b_ovf_n in
       grow_ovf b (off + 2 + nr + nw);
       b.b_ovf.(off) <- nr;
       b.b_ovf.(off + 1) <- nw;
       Array.blit v.v_reads 0 b.b_ovf (off + 2) nr;
       Array.blit v.v_writes 0 b.b_ovf (off + 2 + nr) nw;
       b.b_ovf_n <- off + 2 + nr + nw;
       b.b_desc.(i) <- off lsl 1
     end);
  b.b_n <- i + 1

let encode enc b e =
  Event.view_fill enc.e_scratch e;
  encode_view enc b enc.e_scratch

(* -- decoding ----------------------------------------------------------- *)

let ensure arr n =
  if Array.length arr >= n then arr
  else Array.make (max n ((2 * Array.length arr) + 4)) 0

(** Decode event [i] of [b] into the reusable view (no allocation once
    the view's scratch arrays have grown to the stream's maximum
    read/write fan). *)
let decode_into table b i (v : Event.view) =
  let desc0 = b.b_desc.(i) in
  if desc0 < 0 then
    (* foreign event off the escape hatch: exact by construction *)
    Event.view_fill v b.b_esc.(-desc0 - 1)
  else begin
  let row = Site.row table b.b_site.(i) in
  v.Event.v_func <- row.Site.s_func;
  v.Event.v_pc <- row.Site.s_pc;
  v.Event.v_instr <- row.Site.s_instr;
  v.Event.v_step <- b.b_step.(i);
  v.Event.v_tid <- b.b_tid.(i);
  v.Event.v_addr <- b.b_addr.(i);
  v.Event.v_value <- b.b_value.(i);
  v.Event.v_next_pc <- b.b_next_pc.(i);
  v.Event.v_input_index <- b.b_input.(i);
  let desc = b.b_desc.(i) in
  if desc land 1 = 1 then begin
    let frame = desc lsr 1 in
    let base = frame * Site.frame_stride in
    let offs = row.Site.s_read_offs in
    let nro = Array.length offs in
    let nr = nro + if row.Site.s_mem_read then 1 else 0 in
    let ra = ensure v.Event.v_reads nr in
    for k = 0 to nro - 1 do
      ra.(k) <- base + offs.(k)
    done;
    if row.Site.s_mem_read then ra.(nro) <- b.b_addr.(i) lsl 1;
    v.Event.v_reads <- ra;
    v.Event.v_nreads <- nr;
    let woffs = row.Site.s_write_offs in
    let nwo = Array.length woffs in
    let nw = nwo + if row.Site.s_mem_write then 1 else 0 in
    let wa = ensure v.Event.v_writes nw in
    for k = 0 to nwo - 1 do
      wa.(k) <- base + woffs.(k)
    done;
    if row.Site.s_mem_write then wa.(nwo) <- b.b_addr.(i) lsl 1;
    v.Event.v_writes <- wa;
    v.Event.v_nwrites <- nw
  end
  else begin
    let off = desc lsr 1 in
    let nr = b.b_ovf.(off) and nw = b.b_ovf.(off + 1) in
    let ra = ensure v.Event.v_reads nr in
    Array.blit b.b_ovf (off + 2) ra 0 nr;
    let wa = ensure v.Event.v_writes nw in
    Array.blit b.b_ovf (off + 2 + nr) wa 0 nw;
    v.Event.v_reads <- ra;
    v.Event.v_nreads <- nr;
    v.Event.v_writes <- wa;
    v.Event.v_nwrites <- nw
  end
  end
