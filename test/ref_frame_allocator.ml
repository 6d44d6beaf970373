(* Reference model for the frame allocator: the prebuilt-stack
   implementation [Frame_allocator] replaced (every frame pushed at
   creation), kept only so the lockstep property in test_mem.ml can check
   that the lazy allocator hands out the same frames in the same order
   and rejects the same frees. Not linked into the library. *)

(* The free list is a flat int-array stack, not a cons list: at the
   tens-of-millions-of-frames geometries of the scale experiments a list
   would cost three words per frame and a long pointer chase to build.
   The order is bit-identical to the historical list version: frames pop
   0, 1, 2, ... initially and freed frames are reused LIFO. *)

type t = {
  total : int;
  stack : int array;
  mutable sp : int; (* stack.(0 .. sp-1) are free; top = stack.(sp-1) *)
  state : Bytes.t; (* '\001' = free *)
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_allocator.create: frames <= 0";
  {
    total = frames;
    stack = Array.init frames (fun i -> frames - 1 - i);
    sp = frames;
    state = Bytes.make frames '\001';
  }

let total t = t.total
let free_count t = t.sp
let used_count t = t.total - t.sp

let alloc t =
  if t.sp = 0 then None
  else begin
    let f = t.stack.(t.sp - 1) in
    t.sp <- t.sp - 1;
    Bytes.unsafe_set t.state f '\000';
    Some f
  end

(* Zero-allocation variant for hot loops: -1 when memory is full. *)
let alloc_int t =
  if t.sp = 0 then -1
  else begin
    let f = t.stack.(t.sp - 1) in
    t.sp <- t.sp - 1;
    Bytes.unsafe_set t.state f '\000';
    f
  end

let free t f =
  if f < 0 || f >= t.total then invalid_arg "Frame_allocator.free: bad frame";
  if Bytes.get t.state f = '\001' then
    invalid_arg "Frame_allocator.free: double free";
  Bytes.unsafe_set t.state f '\001';
  t.stack.(t.sp) <- f;
  t.sp <- t.sp + 1

let is_free t f =
  if f < 0 || f >= t.total then invalid_arg "Frame_allocator.is_free: bad frame";
  Bytes.get t.state f = '\001'
