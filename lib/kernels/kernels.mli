(** Benchmark kernel corpus.

    The paper evaluates on the FIR filter of its Section V; the FPFA project
    targeted 3G/4G baseband DSP (reference [2] of the paper), so the corpus
    adds the standard kernels of that domain: IIR biquad, dot product,
    matrix multiply, FFT butterflies, a 4-point DCT, correlation and vector
    operations, plus predicated kernels that exercise if-conversion.

    Every kernel carries deterministic input data so that tests and
    benchmarks are reproducible. *)

type t = {
  name : string;
  description : string;
  source : string;  (** C source, function [main] *)
  inputs : (string * int array) list;  (** seed contents of input regions *)
}

val fir_paper : t
(** The FIR code of paper Section V, verbatim. *)

val fir : taps:int -> t
(** FIR with a configurable tap count (paper's loop bound generalised). *)

val fir_delay : taps:int -> t
(** FIR with an in-place delay-line shift: stores land next to cells
    still being read, so conservative anti-dependence order edges survive
    simplification — the address analysis's workload. *)

val dot_product : n:int -> t
val vector_scale : n:int -> t
val saxpy : n:int -> t
val iir_biquad : sections:int -> t
val matmul : n:int -> t
(** n x n matrix multiply. *)

val fft_butterflies : pairs:int -> t
(** Radix-2 butterflies, integer twiddles. *)

val dct4 : t
(** 4-point DCT approximation with integer weights. *)

val correlation : lags:int -> n:int -> t
val moving_average : window:int -> n:int -> t

val clip : n:int -> t
(** Saturation via if/else — exercises if-conversion. *)

val clip_minmax : n:int -> t
(** The same saturation via min/max intrinsics — E10's branch-free
    comparison point. *)

val max_abs : n:int -> t
(** Reduction with the [max]/[abs] intrinsics. *)

val polynomial : degree:int -> t
(** Horner evaluation — a serial dependence chain. *)

val complex_mul : n:int -> t
(** Complex multiplies written with helper functions (inliner coverage). *)

val manhattan : n:int -> t
(** L1 distance via a helper function. *)

val cumulative_sum : n:int -> t
(** Prefix sum [y[i] = y[i-1] + x[i]] — the canonical loop-carried
    memory recurrence (Fe → add → St cycle at distance 1; RecMII 3). *)

val iir_first_order : n:int -> t
(** First-order IIR [y[i] = (4*x[i] + 3*y[i-1]) >> 3] — a heavier
    feedback cycle (multiply and shift on the carried path; RecMII 5). *)

val moving_average_acc : window:int -> n:int -> t
(** Sliding-window average via a loop-carried scalar accumulator
    ([acc = acc + x[i+W] - x[i]]) — a scalar-carry recurrence
    (RecMII 2), unlike {!moving_average}'s windowed rescan. *)

val crc8 : bytes:int -> t
(** Table-free bit-serial CRC-8 (polynomial 0x07) — the bit-level
    analysis proves the per-step 8-bit re-masks redundant. *)

val pack565 : n:int -> t
(** RGB565 pixel pack/unpack with field scaling written as [*], [/] and
    [%] by powers of two — every multiplier-class op is provably
    demotable to shifts and masks once the field masks bound the packed
    word. *)

val all : t list
(** The default suite at representative sizes (deterministic order). *)

val find : string -> t
(** @raise Not_found for an unknown kernel name. *)

val resolve : string -> t list
(** The kernels a name given by a user resolves to: [[k]] when [k] is
    called exactly that, else every kernel whose name starts with it, in
    the order of {!all}. The first is the one to use ("fir" resolves to
    {!fir_paper}); more than one means the prefix is ambiguous, none that
    the name is unknown. The command line and the serve daemon both
    resolve kernel names here. *)

val reference_state : t -> Cfront.Interp.state
(** Runs the reference interpreter on the kernel's inputs, each a region
    as the tile takes it ({!Cfront.Interp.run_main_on_regions}: an input
    [main] reads as a scalar seeds that scalar). *)
