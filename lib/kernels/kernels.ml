type t = {
  name : string;
  description : string;
  source : string;
  inputs : (string * int array) list;
}

(* Deterministic input vectors: small magnitudes keep products readable in
   reports while still exercising sign handling. *)
let test_vector ~seed n =
  let rng = Fpfa_util.Prng.create (0x5EED + seed) in
  Array.init n (fun _ -> Fpfa_util.Prng.int_in rng (-20) 20)

let fir_paper =
  {
    name = "fir-paper";
    description = "the FIR loop of paper Section V, verbatim";
    source =
      {|void main() {
  sum = 0; i = 0;
  while (i < 5) {
    sum = sum + a[i] * c[i]; i = i + 1;
  }
}|};
    inputs = [ ("a", test_vector ~seed:1 5); ("c", test_vector ~seed:2 5) ];
  }

let fir ~taps =
  {
    name = Printf.sprintf "fir-%d" taps;
    description = Printf.sprintf "%d-tap FIR inner product" taps;
    source =
      Printf.sprintf
        {|void main() {
  sum = 0;
  for (i = 0; i < %d; i = i + 1) {
    sum = sum + a[i] * c[i];
  }
}|}
        taps;
    inputs = [ ("a", test_vector ~seed:1 taps); ("c", test_vector ~seed:2 taps) ];
  }

let dot_product ~n =
  {
    name = Printf.sprintf "dot-%d" n;
    description = Printf.sprintf "dot product of two %d-vectors" n;
    source =
      Printf.sprintf
        {|void main() {
  acc = 0;
  for (i = 0; i < %d; i++) {
    acc += x[i] * y[i];
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:3 n); ("y", test_vector ~seed:4 n) ];
  }

let vector_scale ~n =
  {
    name = Printf.sprintf "vscale-%d" n;
    description = Printf.sprintf "scale a %d-vector by a constant" n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    out[i] = 3 * x[i] + 1;
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:5 n) ];
  }

let saxpy ~n =
  {
    name = Printf.sprintf "saxpy-%d" n;
    description = Printf.sprintf "out = 7*x + y over %d elements" n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    out[i] = 7 * x[i] + y[i];
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:6 n); ("y", test_vector ~seed:7 n) ];
  }

let iir_biquad ~sections =
  (* Direct-form-I biquad cascade with integer coefficients and a >> 4
     quantisation per section. *)
  {
    name = Printf.sprintf "iir-%d" sections;
    description = Printf.sprintf "%d cascaded integer biquad sections" sections;
    source =
      Printf.sprintf
        {|void main() {
  w1 = 0; w2 = 0;
  for (s = 0; s < %d; s++) {
    x = in[s];
    y = (13 * x + 9 * w1 - 4 * w2) >> 4;
    w2 = w1;
    w1 = y;
    out[s] = y;
  }
}|}
        sections;
    inputs = [ ("in", test_vector ~seed:8 sections) ];
  }

let matmul ~n =
  {
    name = Printf.sprintf "matmul-%d" n;
    description = Printf.sprintf "%dx%d integer matrix multiply" n n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    for (j = 0; j < %d; j++) {
      t = 0;
      for (k = 0; k < %d; k++) {
        t += ma[%d * i + k] * mb[%d * k + j];
      }
      mc[%d * i + j] = t;
    }
  }
}|}
        n n n n n n;
    inputs =
      [
        ("ma", test_vector ~seed:9 (n * n)); ("mb", test_vector ~seed:10 (n * n));
      ];
  }

let fft_butterflies ~pairs =
  (* Integer radix-2 butterflies: (a, b) -> (a + w*b, a - w*b) with per-pair
     twiddle weights. *)
  {
    name = Printf.sprintf "fft-bfly-%d" pairs;
    description = Printf.sprintf "%d radix-2 butterflies" pairs;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    t = w[i] * bb[i];
    xr[i] = aa[i] + t;
    xi[i] = aa[i] - t;
  }
}|}
        pairs;
    inputs =
      [
        ("aa", test_vector ~seed:11 pairs);
        ("bb", test_vector ~seed:12 pairs);
        ("w", test_vector ~seed:13 pairs);
      ];
  }

let dct4 =
  {
    name = "dct4";
    description = "4-point DCT with integer weight approximation";
    source =
      {|void main() {
  s03 = x[0] + x[3];
  d03 = x[0] - x[3];
  s12 = x[1] + x[2];
  d12 = x[1] - x[2];
  y[0] = s03 + s12;
  y[1] = (17 * d03 + 7 * d12) >> 4;
  y[2] = s03 - s12;
  y[3] = (7 * d03 - 17 * d12) >> 4;
}|};
    inputs = [ ("x", test_vector ~seed:14 4) ];
  }

let correlation ~lags ~n =
  {
    name = Printf.sprintf "corr-%d-%d" lags n;
    description =
      Printf.sprintf "autocorrelation, %d lags over %d samples" lags n;
    source =
      Printf.sprintf
        {|void main() {
  for (l = 0; l < %d; l++) {
    acc = 0;
    for (i = 0; i < %d; i++) {
      acc += sig[i] * sig[i + l];
    }
    r[l] = acc;
  }
}|}
        lags n;
    inputs = [ ("sig", test_vector ~seed:15 (n + lags)) ];
  }

let moving_average ~window ~n =
  {
    name = Printf.sprintf "mavg-%d-%d" window n;
    description = Printf.sprintf "moving average, window %d over %d samples" window n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    acc = 0;
    for (k = 0; k < %d; k++) {
      acc += sig[i + k];
    }
    out[i] = acc / %d;
  }
}|}
        n window window;
    inputs = [ ("sig", test_vector ~seed:16 (n + window)) ];
  }

let clip ~n =
  {
    name = Printf.sprintf "clip-%d" n;
    description =
      Printf.sprintf "saturate %d samples to [-10, 10] via if/else" n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    v = x[i];
    if (v > 10) {
      v = 10;
    } else {
      if (v < -10) {
        v = -10;
      }
    }
    out[i] = v;
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:17 n) ];
  }

let max_abs ~n =
  {
    name = Printf.sprintf "maxabs-%d" n;
    description = Printf.sprintf "maximum absolute value of %d samples" n;
    source =
      Printf.sprintf
        {|void main() {
  m = 0;
  for (i = 0; i < %d; i++) {
    m = max(m, abs(x[i]));
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:18 n) ];
  }

let polynomial ~degree =
  {
    name = Printf.sprintf "poly-%d" degree;
    description =
      Printf.sprintf "degree-%d Horner polynomial (serial dependence chain)"
        degree;
    source =
      Printf.sprintf
        {|void main() {
  acc = coeff[0];
  for (i = 1; i <= %d; i++) {
    acc = acc * xv[0] + coeff[i];
  }
}|}
        degree;
    inputs =
      [
        ("coeff", test_vector ~seed:19 (degree + 1));
        ("xv", [| 3 |]);
      ];
  }

let clip_minmax ~n =
  {
    name = Printf.sprintf "clipmm-%d" n;
    description =
      Printf.sprintf "saturate %d samples to [-10, 10] via min/max" n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    out[i] = min(max(x[i], -10), 10);
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:17 n) ];
  }

(* Kernels written with helper functions: they exercise the inliner on the
   whole-corpus tests and benches. *)
let complex_mul ~n =
  {
    name = Printf.sprintf "cmul-%d" n;
    description =
      Printf.sprintf "%d complex multiplies via helper functions" n;
    source =
      Printf.sprintf
        {|int re_part(int ar, int ai, int br, int bi) { return ar * br - ai * bi; }
int im_part(int ar, int ai, int br, int bi) { return ar * bi + ai * br; }
void main() {
  for (i = 0; i < %d; i++) {
    zr[i] = re_part(xr[i], xi[i], yr[i], yi[i]);
    zi[i] = im_part(xr[i], xi[i], yr[i], yi[i]);
  }
}|}
        n;
    inputs =
      [
        ("xr", test_vector ~seed:20 n); ("xi", test_vector ~seed:21 n);
        ("yr", test_vector ~seed:22 n); ("yi", test_vector ~seed:23 n);
      ];
  }

let manhattan ~n =
  {
    name = Printf.sprintf "manhattan-%d" n;
    description =
      Printf.sprintf "L1 distance of two %d-vectors via a helper" n;
    source =
      Printf.sprintf
        {|int dist1(int a, int b) { return abs(a - b); }
void main() {
  d = 0;
  for (i = 0; i < %d; i++) { d = d + dist1(p[i], q[i]); }
}|}
        n;
    inputs = [ ("p", test_vector ~seed:24 n); ("q", test_vector ~seed:25 n) ];
  }

let fir_delay ~taps =
  (* In-place delay-line FIR: the state shift stores into cells adjacent
     to the ones still being read, so the builder's conservative
     anti-dependence order edges survive simplification — the workload
     that exercises the address analysis and the per-cell versions of
     phase 1. *)
  {
    name = Printf.sprintf "fir-dl-%d" taps;
    description =
      Printf.sprintf "%d-tap FIR with an in-place delay-line shift" taps;
    source =
      Printf.sprintf
        {|void main() {
  acc = 0;
  for (k = %d; k > 0; k = k - 1) {
    state[k] = state[k - 1];
  }
  state[0] = x[0];
  for (k = 0; k < %d; k = k + 1) {
    acc += state[k] * coef[k];
  }
  y = acc;
}|}
        (taps - 1) taps;
    inputs =
      [
        ("state", test_vector ~seed:26 taps);
        ("coef", test_vector ~seed:27 taps);
        ("x", test_vector ~seed:28 1);
      ];
  }

let cumulative_sum ~n =
  (* The canonical tight recurrence: each element needs the previous one
     back from memory, so the Fe -> add -> St cycle bounds the II from
     below no matter how many ALUs the tile has. *)
  {
    name = Printf.sprintf "cumsum-%d" n;
    description = Printf.sprintf "prefix sum of %d samples (y[i] = y[i-1] + x[i])" n;
    source =
      Printf.sprintf
        {|void main() {
  y[0] = x[0];
  for (i = 1; i < %d; i = i + 1) {
    y[i] = y[i - 1] + x[i];
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:29 n) ];
  }

let iir_first_order ~n =
  (* First-order IIR with the feedback path written out long-hand: the
     recurrence cycle carries two multiplies-worth of arithmetic plus the
     quantising shift, so RecMII exceeds the prefix sum's. *)
  {
    name = Printf.sprintf "iir1-%d" n;
    description =
      Printf.sprintf "first-order IIR over %d samples, y[i] = (4x[i]+3y[i-1])>>3"
        n;
    source =
      Printf.sprintf
        {|void main() {
  y[0] = x[0];
  for (i = 1; i < %d; i = i + 1) {
    y[i] = (4 * x[i] + 3 * y[i - 1]) >> 3;
  }
}|}
        n;
    inputs = [ ("x", test_vector ~seed:30 n) ];
  }

let moving_average_acc ~window ~n =
  (* Sliding-window average via a loop-carried scalar accumulator
     (add the entering sample, subtract the leaving one) instead of
     mavg's rescan of the window — an O(1)-per-sample recurrence. *)
  {
    name = Printf.sprintf "mavg-acc-%d-%d" window n;
    description =
      Printf.sprintf
        "moving average, window %d over %d samples, carried accumulator"
        window n;
    source =
      Printf.sprintf
        {|void main() {
  acc = 0;
  for (k = 0; k < %d; k = k + 1) {
    acc += x[k];
  }
  out[0] = acc >> 2;
  for (i = 0; i < %d; i = i + 1) {
    acc = acc + x[i + %d] - x[i];
    out[i + 1] = acc >> 2;
  }
}|}
        window n window;
    inputs = [ ("x", test_vector ~seed:31 (n + window)) ];
  }

let crc8 ~bytes =
  (* Table-free CRC-8 (polynomial 0x07), bit-serial: the working byte is
     re-masked to 8 bits every step, so the known-bits analysis proves the
     high masks redundant while the select conditions stay data-dependent.
     Inputs are masked on entry — the kernel is total on any word. *)
  {
    name = Printf.sprintf "crc8-%d" bytes;
    description =
      Printf.sprintf "bit-serial CRC-8 (poly 0x07) over %d bytes" bytes;
    source =
      Printf.sprintf
        {|void main() {
  crc = 0;
  for (i = 0; i < %d; i++) {
    crc = crc ^ (msg[i] & 255);
    for (b = 0; b < 8; b++) {
      if ((crc & 128) != 0) {
        crc = ((crc << 1) ^ 7) & 255;
      } else {
        crc = (crc << 1) & 255;
      }
    }
  }
  out[0] = crc & 255;
}|}
        bytes;
    inputs = [ ("msg", test_vector ~seed:32 bytes) ];
  }

let pack565 ~n =
  (* RGB565 pack/unpack with the scale factors written as multiply,
     divide and modulo by powers of two: once the field masks prove the
     packed word non-negative and bounded, every multiplier-class op here
     is demotable to a shift or a mask, and the unpack-side re-masks are
     redundant. *)
  {
    name = Printf.sprintf "pack565-%d" n;
    description =
      Printf.sprintf "RGB565 pack/unpack of %d pixels via * / %% by 2^k" n;
    source =
      Printf.sprintf
        {|void main() {
  for (i = 0; i < %d; i++) {
    r = rr[i] & 31;
    g = gg[i] & 63;
    b = bb[i] & 31;
    p = r * 2048 + g * 32 + b;
    pix[i] = p;
    ur[i] = (p / 2048) & 31;
    ug[i] = (p / 32) %% 64;
    ub[i] = p %% 32;
  }
}|}
        n;
    inputs =
      [
        ("rr", test_vector ~seed:33 n);
        ("gg", test_vector ~seed:34 n);
        ("bb", test_vector ~seed:35 n);
      ];
  }

let all =
  [
    fir_paper;
    fir ~taps:16;
    fir_delay ~taps:8;
    dot_product ~n:8;
    vector_scale ~n:8;
    saxpy ~n:8;
    iir_biquad ~sections:6;
    matmul ~n:3;
    fft_butterflies ~pairs:4;
    dct4;
    correlation ~lags:4 ~n:8;
    moving_average ~window:4 ~n:6;
    clip ~n:6;
    max_abs ~n:8;
    polynomial ~degree:6;
    complex_mul ~n:4;
    manhattan ~n:8;
    clip_minmax ~n:6;
    cumulative_sum ~n:8;
    iir_first_order ~n:8;
    moving_average_acc ~window:4 ~n:8;
    crc8 ~bytes:4;
    pack565 ~n:4;
  ]

let find name = List.find (fun k -> String.equal k.name name) all

let resolve name =
  match find name with
  | k -> [ k ]
  | exception Not_found ->
    List.filter (fun k -> String.starts_with ~prefix:name k.name) all

let reference_state k =
  let program = Cfront.Inline.program (Cfront.Parser.parse_program k.source) in
  Cfront.Interp.run_main_on_regions k.inputs program
