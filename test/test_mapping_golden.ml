(* Golden jobs: the MD5 of [Mapping.Encode.to_string] for a fixed set of
   mapping runs. The mapping phases are deterministic, so a change to
   clustering, scheduling or allocation that alters any decision shows up
   as a changed digest here, while a change that only makes them faster
   leaves every digest as it is.

   Cases:
   - every corpus kernel under every baseline variant;
   - the paper flow on two more tiles (3 ALUs / 2 buses / window 1 and
     8 ALUs / 16 buses / window 6);
   - the two design-space DAGs (1000 ops at seed 1, 2000 ops at seed 2) at
     two tile points each, under every scheduling priority, and their
     cluster, sched and alloc counters;
   - the benchmark's remap grid: five minimised checkpoints (the two DAGs,
     crc8-16, matmul-8 and fir-256), each rewound to six tile points;
   - the error text of one allocation that runs out of tile memory;
   - the MD5 of [Cdfg.Serialize.to_string] of the minimised graph of every
     corpus kernel, the six large kernels and the two DAGs under the
     default config, plus the large kernels' jobs, which no case above
     pins, and the simplifier's counters over the large kernels. Every
     rewrite the simplifier fires shows up in these;
   - the canonical digest ([Cdfg.Serialize.digest]) of the raw and
     minimised graph of every corpus kernel and both DAGs, and of the raw
     graph of every large kernel. *)

module Flow = Fpfa_core.Flow
module Arch = Fpfa_arch.Arch
module Kernels = Fpfa_kernels.Kernels

let digest job = Digest.to_hex (Digest.string (Mapping.Encode.to_string job))

let tile ~alus ~buses ~window =
  Arch.paper_tile |> Arch.with_alu_count alus |> Arch.with_buses buses
  |> Arch.with_move_window window

let tile_name (t : Arch.tile) =
  Printf.sprintf "a%d.b%d.w%d" t.Arch.alu_count t.Arch.buses t.Arch.move_window

let kernel_cases (v : Baseline.variant) =
  List.map
    (fun (k : Kernels.t) ->
      ( Printf.sprintf "%s/%s" v.Baseline.vname k.Kernels.name,
        fun () -> digest (Baseline.map_source v k.Kernels.source).Flow.job ))
    Kernels.all

let tile_cases t =
  let config = { Flow.default_config with Flow.tile = t } in
  List.map
    (fun (k : Kernels.t) ->
      ( Printf.sprintf "paper@%s/%s" (tile_name t) k.Kernels.name,
        fun () -> digest (Flow.map_source ~config k.Kernels.source).Flow.job ))
    Kernels.all

let priorities =
  [ ("mobility", Mapping.Sched.Mobility); ("alap", Mapping.Sched.Alap_first);
    ("cid", Mapping.Sched.Cid_order) ]

let dag_tiles = [ Arch.paper_tile; tile ~alus:3 ~buses:2 ~window:1 ]

(* The clustering is shared by every tile point and priority: the data
   path it fits ([tile.alu]) is the same on all of them. *)
let dag_clustering ~ops ~seed =
  lazy
    (Flow.map_graph (Fpfa_kernels.Random_graph.generate ~seed ~ops ()))
      .Flow.clustering

let dag_1000 = dag_clustering ~ops:1000 ~seed:1
let dag_2000 = dag_clustering ~ops:2000 ~seed:2

let dag_cases name clustering =
  List.concat_map
    (fun t ->
      List.map
        (fun (pname, priority) ->
          ( Printf.sprintf "%s@%s/%s" name (tile_name t) pname,
            fun () ->
              let sched =
                Mapping.Sched.run ~alu_count:t.Arch.alu_count ~priority
                  (Lazy.force clustering)
              in
              digest (Mapping.Alloc.run ~tile:t sched) ))
        priorities)
    dag_tiles

(* The benchmark's remap workload: op k rewinds checkpoint k / 6 to grid
   point 7k mod 100 over alus {3,4,5,8} x buses {2,4,6,10,16} x window
   {1,2,3,4,6}. The rewinds of one checkpoint share its clustering, as
   they do there. *)
let remap_cases () =
  let alus = [| 3; 4; 5; 8 |] and buses = [| 2; 4; 6; 10; 16 |]
  and windows = [| 1; 2; 3; 4; 6 |] in
  let config = Flow.default_config in
  let dag ~ops ~seed () =
    Flow.Staged.of_graph ~config (Fpfa_kernels.Random_graph.generate ~seed ~ops ())
  in
  let kernel (k : Kernels.t) () = Flow.Staged.of_source ~config k.Kernels.source in
  let checkpoints =
    List.map
      (fun (name, stage) ->
        let s = Flow.Staged.advance (stage ()) in
        Flow.Staged.freeze s;
        (name, s))
      [ ("dag-1000", dag ~ops:1000 ~seed:1); ("dag-2000", dag ~ops:2000 ~seed:2);
        ("crc8-16", kernel (Kernels.crc8 ~bytes:16));
        ("matmul-8", kernel (Kernels.matmul ~n:8));
        ("fir-256", kernel (Kernels.fir ~taps:256)) ]
    |> Array.of_list
  in
  List.init (Array.length checkpoints * 6) (fun k ->
      let name, checkpoint = checkpoints.(k / 6) in
      let g = 7 * k mod 100 in
      let t =
        tile ~alus:alus.(g / 25) ~buses:buses.(g / 5 mod 5) ~window:windows.(g mod 5)
      in
      ( Printf.sprintf "remap/%s@%s" name (tile_name t),
        fun () ->
          let config = { config with Flow.tile = t } in
          let s = Option.get (Flow.Staged.rewind checkpoint ~config) in
          digest (Flow.Staged.to_result (Flow.Staged.run s)).Flow.job ))

let graph_digest g = Digest.to_hex (Digest.string (Cdfg.Serialize.to_string g))

(* The kernels of the benchmark's [large] workload. *)
let large_kernels =
  [
    Kernels.fir ~taps:256; Kernels.fir_delay ~taps:128; Kernels.matmul ~n:8;
    Kernels.correlation ~lags:8 ~n:32; Kernels.crc8 ~bytes:16;
    Kernels.pack565 ~n:32;
  ]

let sources ks =
  List.map
    (fun (k : Kernels.t) ->
      (k.Kernels.name, fun () -> Flow.map_source k.Kernels.source))
    ks

let dags =
  List.map
    (fun (ops, seed) ->
      ( Printf.sprintf "dag-%d" ops,
        fun () ->
          Flow.map_graph (Fpfa_kernels.Random_graph.generate ~seed ~ops ()) ))
    [ (1000, 1); (2000, 2) ]

(* One compile per program feeds its graph case and, with [~jobs], its
   job case. *)
let flow_cases ~jobs programs =
  List.concat_map
    (fun (name, compile) ->
      let r = lazy (compile ()) in
      ("graph/" ^ name, fun () -> graph_digest (Lazy.force r).Flow.graph)
      ::
      (if jobs then
         [ ("job/" ^ name, fun () -> digest (Lazy.force r).Flow.job) ]
       else []))
    programs

let expected =
  [
    ("paper/fir-paper", "cc6c39085594441228960c0ee9ca73dc");
    ("paper/fir-16", "6274c5e288b9c25ec49ec7d8c0480c35");
    ("paper/fir-dl-8", "ffd899ec707fcdcf50bf6cbfff1ed3b7");
    ("paper/dot-8", "106c29f4ad57024cee65b56774bdd534");
    ("paper/vscale-8", "346e51c424b8a6b5e6ec31adab68f5b9");
    ("paper/saxpy-8", "2c22decb2db9c085499e531011e5e7a9");
    ("paper/iir-6", "a5a0c3ab7cc5149e283df3417ff0ebab");
    ("paper/matmul-3", "1372159cc7ed65a62c7ebbdf11913ff6");
    ("paper/fft-bfly-4", "1c4fb23fc1898dc6f19a110ae1546b30");
    ("paper/dct4", "2b537e0d81b70d9b89401264e2bcffe5");
    ("paper/corr-4-8", "4ae0a80adee1f8c690c22eb16380442e");
    ("paper/mavg-4-6", "b9192ee9916811993fd45126f850a0a6");
    ("paper/clip-6", "c9a1bde91fbf7a8d611d7abb77d0a4f8");
    ("paper/maxabs-8", "617cb3ff5a243cf4e8d9683dcc2b6ccf");
    ("paper/poly-6", "302f621572151270038401fe1d973ae8");
    ("paper/cmul-4", "41b27a7ac15d1d62b61b5719b6377a05");
    ("paper/manhattan-8", "6b57661f3e204ba10c500141ff9b958d");
    ("paper/clipmm-6", "d615b1a6bf0086ebfd560930e13e18b8");
    ("paper/cumsum-8", "4bac12d3b2eb925e2964fffdaf00ba65");
    ("paper/iir1-8", "4128c9309e1ee1e7bd291eb8da97f1df");
    ("paper/mavg-acc-4-8", "5625f72b9745e89e895eb53cc7c2dd6d");
    ("paper/crc8-4", "80fe8181997c5367a39d6e809a5f7ff3");
    ("paper/pack565-4", "bbf37605a54803d8ecbcff2e755d10cd");
    ("sequential/fir-paper", "987c3f472035b0a61e9c840e1559120c");
    ("sequential/fir-16", "f85c4ad3c4084bf5cbe0de5cc5982df1");
    ("sequential/fir-dl-8", "47e58993fabdd02b9be538c21077d2ad");
    ("sequential/dot-8", "6b08263f5caca4ae217382e702c9f044");
    ("sequential/vscale-8", "fa33612e7258064edeb8ec83090068fa");
    ("sequential/saxpy-8", "3fecfe4a84aa1334f3038ed2c1d3dc5d");
    ("sequential/iir-6", "0f046fcef40dfcc7842c1efff69b27d3");
    ("sequential/matmul-3", "27fb67564ef06cecd763bfeb51f5d333");
    ("sequential/fft-bfly-4", "728accf53bc2155586328fc26081c3dc");
    ("sequential/dct4", "c0235a7d7b652c859627b959c1e09571");
    ("sequential/corr-4-8", "5c69e1dfe29ba433f7bd5bfb5afbe098");
    ("sequential/mavg-4-6", "e21c98c1adbd78b9a000480d678200ef");
    ("sequential/clip-6", "dc41a8d422c950ac1538d0740148f49d");
    ("sequential/maxabs-8", "97c41e2ee97b901ab0307d35c9b2c8da");
    ("sequential/poly-6", "020614a2743c46c5fe3280118a1bb07b");
    ("sequential/cmul-4", "63347d23e4a59ff685c3668fb08b2eae");
    ("sequential/manhattan-8", "2b3286024fa01c4e832f91cc05c9a267");
    ("sequential/clipmm-6", "673f603c5fb4854f9e085946e355fdf5");
    ("sequential/cumsum-8", "4175b27982347906372c6d6cea9ac1cf");
    ("sequential/iir1-8", "a06e1780730445b1db77d83da1dc7391");
    ("sequential/mavg-acc-4-8", "3d75ce019389e22d13d34fe5c99e497f");
    ("sequential/crc8-4", "89cc9c539cc68e1e3ca07bd3ab6ef5d1");
    ("sequential/pack565-4", "cd75bc3fed347b1ff756bcddc0f6b4f0");
    ("unit-ops/fir-paper", "1d3ad99535a89c5841e13041706efbc9");
    ("unit-ops/fir-16", "9610e2728e7a38f54af0ce0ec5d4d7a3");
    ("unit-ops/fir-dl-8", "df6baec3472cf5bb3eebc17fdecbcb76");
    ("unit-ops/dot-8", "d8cf7175383637c32f9bca598a5ac0e8");
    ("unit-ops/vscale-8", "22e60bf2380a36fcf0d214a19cc04717");
    ("unit-ops/saxpy-8", "82ce56a844383f1c2336aa2c493f1830");
    ("unit-ops/iir-6", "cb77c92af0993fd00af6a2f6fd7828b0");
    ("unit-ops/matmul-3", "ce8dea656467c651c8a94fff4b6055e3");
    ("unit-ops/fft-bfly-4", "1c4fb23fc1898dc6f19a110ae1546b30");
    ("unit-ops/dct4", "b90f6ca71127007e82e88ef188df9276");
    ("unit-ops/corr-4-8", "efad30dbbce16e49df3c3e130fd999bf");
    ("unit-ops/mavg-4-6", "b04f4e10394a041cfeaa58aa765419ce");
    ("unit-ops/clip-6", "3d789c6560c019da7e287e919678324b");
    ("unit-ops/maxabs-8", "fd71eb6fd7a255c339fbcac6dc8928a2");
    ("unit-ops/poly-6", "0ff49a839f5c5c5cfd2b317806b546cd");
    ("unit-ops/cmul-4", "05a69066ce5e21ad3289bc82deb8e7cd");
    ("unit-ops/manhattan-8", "03d02c12bc7dfa1de49391a38a42edb6");
    ("unit-ops/clipmm-6", "b36bf40c526e3031f564060afc49301b");
    ("unit-ops/cumsum-8", "4bac12d3b2eb925e2964fffdaf00ba65");
    ("unit-ops/iir1-8", "fddbb81155734c39ad28e78ca8b0aed1");
    ("unit-ops/mavg-acc-4-8", "20f067732d98f52f2574aa3ac5149e4b");
    ("unit-ops/crc8-4", "40974cd3b91d6713d258ef7407ed8fc9");
    ("unit-ops/pack565-4", "4cc0d7a4489af7e6924f3e79be7d9767");
    ("sarkar/fir-paper", "dd06591ac1bc154462ffcc29ea751ec2");
    ("sarkar/fir-16", "85b26bcef8ecae2ef086d9aaac13646d");
    ("sarkar/fir-dl-8", "ffd899ec707fcdcf50bf6cbfff1ed3b7");
    ("sarkar/dot-8", "106c29f4ad57024cee65b56774bdd534");
    ("sarkar/vscale-8", "346e51c424b8a6b5e6ec31adab68f5b9");
    ("sarkar/saxpy-8", "2c22decb2db9c085499e531011e5e7a9");
    ("sarkar/iir-6", "b1710357504d3112dd76b3e788fbdb9f");
    ("sarkar/matmul-3", "498e37b6a6e375545296f4087b76e5f7");
    ("sarkar/fft-bfly-4", "1c4fb23fc1898dc6f19a110ae1546b30");
    ("sarkar/dct4", "02286332ef6ebd54ccdc2c49a6177a7d");
    ("sarkar/corr-4-8", "4ae0a80adee1f8c690c22eb16380442e");
    ("sarkar/mavg-4-6", "a96a48b53b69a790f64cc2292a370228");
    ("sarkar/clip-6", "559509ff17e580200262f4c0d1aebbcd");
    ("sarkar/maxabs-8", "617cb3ff5a243cf4e8d9683dcc2b6ccf");
    ("sarkar/poly-6", "302f621572151270038401fe1d973ae8");
    ("sarkar/cmul-4", "41b27a7ac15d1d62b61b5719b6377a05");
    ("sarkar/manhattan-8", "7d1ddbeab44c5630a10445cdd46f34d7");
    ("sarkar/clipmm-6", "d615b1a6bf0086ebfd560930e13e18b8");
    ("sarkar/cumsum-8", "4bac12d3b2eb925e2964fffdaf00ba65");
    ("sarkar/iir1-8", "d5715b7a18a49cecf750050f4f6183fe");
    ("sarkar/mavg-acc-4-8", "5625f72b9745e89e895eb53cc7c2dd6d");
    ("sarkar/crc8-4", "c1965f650c16d18b81ae7fa96853ae2a");
    ("sarkar/pack565-4", "acf6f9b8dd646d98c24f6279a9da3e57");
    ("no-locality/fir-paper", "c185cb9711ff66e7ed33b5adc33989ca");
    ("no-locality/fir-16", "b09b2acc72fc2bcf63bc350348377e9a");
    ("no-locality/fir-dl-8", "a7b17a59b2ec7f230b2a5404b02a4d8b");
    ("no-locality/dot-8", "78399c05f9819fddd0f7492a7122aa30");
    ("no-locality/vscale-8", "34d1e1e149e7420ec9aae84ded4129ba");
    ("no-locality/saxpy-8", "3615248c09394452e5b66c4f4c0af423");
    ("no-locality/iir-6", "96c76efd68203bd0d064512f10bc76cc");
    ("no-locality/matmul-3", "f91e16d491d7325561c1f7c6c6a6cd42");
    ("no-locality/fft-bfly-4", "7eed3ae39b01d208a0919581d1fdf011");
    ("no-locality/dct4", "85da68b2abe49cb986a999079435edcd");
    ("no-locality/corr-4-8", "b90ed62065ce0ef8eb2fb373832070c6");
    ("no-locality/mavg-4-6", "2d43527f41c2d1f2edff4ebd9c463ea2");
    ("no-locality/clip-6", "07f2cee32411a862b07ec794c1169258");
    ("no-locality/maxabs-8", "ac0eaf36ad99ba342276b00d29e52584");
    ("no-locality/poly-6", "57db0f0ba8159a1a98ca1afe27951905");
    ("no-locality/cmul-4", "40766a2336091c7001e18c921648fb75");
    ("no-locality/manhattan-8", "e800f6ec85298f0e40afe752dc2aeb84");
    ("no-locality/clipmm-6", "4d228dc1058acc531b3713dbac03ec6f");
    ("no-locality/cumsum-8", "0183677b37431b1ac0ddc23ffc1485c2");
    ("no-locality/iir1-8", "de652d7d17804a2a120c81c4ffef7c26");
    ("no-locality/mavg-acc-4-8", "c15b83f1b3c50429c3eee2d8699f4a7c");
    ("no-locality/crc8-4", "78e933aacde753d48250ae52ab61d509");
    ("no-locality/pack565-4", "5b7bcaf8198a9ac32a11b0bacc5c75be");
    ("forwarding/fir-paper", "7bdd108d5fa16f540a7e1995f29fd8ce");
    ("forwarding/fir-16", "85186394a09ef2384fcb57fc91ab1b97");
    ("forwarding/fir-dl-8", "74e2e090f521caacbacc4a6bf40f4065");
    ("forwarding/dot-8", "fe36863e5b8e2d7bd0f2f582f1087848");
    ("forwarding/vscale-8", "346e51c424b8a6b5e6ec31adab68f5b9");
    ("forwarding/saxpy-8", "2c22decb2db9c085499e531011e5e7a9");
    ("forwarding/iir-6", "487180af71630f15d942f70f5e8b8f4e");
    ("forwarding/matmul-3", "7708c5a70e108aac32533c832740dc3e");
    ("forwarding/fft-bfly-4", "1c4fb23fc1898dc6f19a110ae1546b30");
    ("forwarding/dct4", "f6d0c61071e639975c52e66c7f9ff389");
    ("forwarding/corr-4-8", "36fa2fe928d5ea30d9714dbf8fb7263e");
    ("forwarding/mavg-4-6", "ff0920756b6180d5199c8731eb814070");
    ("forwarding/clip-6", "3aeb9e9d3a42616006e17060bea7e56c");
    ("forwarding/maxabs-8", "c18c728787d218f53de899107a70d234");
    ("forwarding/poly-6", "7165159990a336117712af31e2512520");
    ("forwarding/cmul-4", "e67012342160d8f35de2d19ce12a6906");
    ("forwarding/manhattan-8", "8a82922e20320612f314dc47042d331f");
    ("forwarding/clipmm-6", "96c4f1e047ba931f69a873f3c04eff67");
    ("forwarding/cumsum-8", "871a19ae425173135a20fc2c87ba496f");
    ("forwarding/iir1-8", "1d5b042eaf945e6ce3d16cec537ae563");
    ("forwarding/mavg-acc-4-8", "fbb6fbda59553fa698cd017210541ee1");
    ("forwarding/crc8-4", "0ca5baa1a28b0c160b1d16135afcb41e");
    ("forwarding/pack565-4", "7940ccbb6dd39f1377e5ca7b57e3e3ce");
    ("interleaved/fir-paper", "72f1bb3fbbf7081414e2959fbba7869b");
    ("interleaved/fir-16", "5571d34311a5d3fe78460c7acfc81fc2");
    ("interleaved/fir-dl-8", "bfe52c9117197964277a93595c30e156");
    ("interleaved/dot-8", "999bf990c222d3fc6da75052f7d5489e");
    ("interleaved/vscale-8", "6a8d9c4d7f09aeb73527bac9987150c0");
    ("interleaved/saxpy-8", "79fa5feaa9839d47d2d95ca46db4575a");
    ("interleaved/iir-6", "9a8b9f4351c615038277d99f4e7e2c05");
    ("interleaved/matmul-3", "b37b0c6eb4bdffc389c61cc9201c51a4");
    ("interleaved/fft-bfly-4", "e16838f72f9b3ed4d952cadeb86784ea");
    ("interleaved/dct4", "d50ece57d619ce94c092e8498ea246f0");
    ("interleaved/corr-4-8", "cb6c6221cf4ef125426bb80aa28ce036");
    ("interleaved/mavg-4-6", "f00de9399d2f5a540a866c860d719c0a");
    ("interleaved/clip-6", "576737f5795459955dd69ec4186194d3");
    ("interleaved/maxabs-8", "90aeb70b0872033684cbde10e12d2256");
    ("interleaved/poly-6", "dfcbe49a0f4d722a3f9500ffb2f98716");
    ("interleaved/cmul-4", "27c40b96d7db6ea9d98e63be586d7342");
    ("interleaved/manhattan-8", "450d8ae824b019a111212d7161b2f59b");
    ("interleaved/clipmm-6", "d90c73d61dede7eb8857947240265b04");
    ("interleaved/cumsum-8", "8184faa488347cdc4c1bb44dc7b66dff");
    ("interleaved/iir1-8", "c729c57dc48601f2104e9cb563a606d4");
    ("interleaved/mavg-acc-4-8", "4c387ace7c1d53247a2a02e97786eb7a");
    ("interleaved/crc8-4", "e8425f113203dbfaf62a5255b7a15479");
    ("interleaved/pack565-4", "5a3e507a1259fd6a17e565a7f005789c");
    ("paper@a3.b2.w1/fir-paper", "bd63bcd8b90c5ba0dc77e17fde64023f");
    ("paper@a3.b2.w1/fir-16", "b464c0ed867e5dbf4b3df07d289a97bc");
    ("paper@a3.b2.w1/fir-dl-8", "e3ae97cfd6542ecaece27f7a45a61a46");
    ("paper@a3.b2.w1/dot-8", "635fea6af06d57c6d2c6fb6159dec99f");
    ("paper@a3.b2.w1/vscale-8", "6efe09c0c1ba4f8c962c57fce9d0896e");
    ("paper@a3.b2.w1/saxpy-8", "a1653b5433d115495e99281b4bdcd9ac");
    ("paper@a3.b2.w1/iir-6", "5909169cbce7cc235d97405a23fdff12");
    ("paper@a3.b2.w1/matmul-3", "6d5571e4c03533192f6691cd17bc627b");
    ("paper@a3.b2.w1/fft-bfly-4", "52c990f5ab0f39571ce23c7c33f42ae7");
    ("paper@a3.b2.w1/dct4", "5c49b6adbf14d64f31fa4b607a665323");
    ("paper@a3.b2.w1/corr-4-8", "0aa3313efc0460debab2ad37a5330357");
    ("paper@a3.b2.w1/mavg-4-6", "cc6389f6fe2acd3ff0ee12e2c2f3b241");
    ("paper@a3.b2.w1/clip-6", "1ec42a16a00161d16b996f275632cdc1");
    ("paper@a3.b2.w1/maxabs-8", "375fba61b2f8c99debeb8533e5edcf4b");
    ("paper@a3.b2.w1/poly-6", "043a27f229380b108767cd9163c860c2");
    ("paper@a3.b2.w1/cmul-4", "8b3f44870c2e975c47d8216ab624a601");
    ("paper@a3.b2.w1/manhattan-8", "c962addfd4166d442914ef43578fab1e");
    ("paper@a3.b2.w1/clipmm-6", "3dabd2fb95ae080d42b83f09730ab0f1");
    ("paper@a3.b2.w1/cumsum-8", "49ad4983450f7e7332a3510b7215b529");
    ("paper@a3.b2.w1/iir1-8", "b0f65b21acdaeed6f1c96976597dafdd");
    ("paper@a3.b2.w1/mavg-acc-4-8", "859fe29017ad4f633d78f0280fe8b36d");
    ("paper@a3.b2.w1/crc8-4", "b2ede2e085cec8be3f8214f46db806bc");
    ("paper@a3.b2.w1/pack565-4", "328bbe99451c3a91aff32cd74eb9f554");
    ("paper@a8.b16.w6/fir-paper", "67b01f86591595b4277ca90f5db95132");
    ("paper@a8.b16.w6/fir-16", "0bbdca66079cafd00fee837fb6d30b87");
    ("paper@a8.b16.w6/fir-dl-8", "d70745ac246150a30be8fbf304532f81");
    ("paper@a8.b16.w6/dot-8", "b754a6020bcac7c4e6f420a67ad25798");
    ("paper@a8.b16.w6/vscale-8", "29cd5b365f84be9c6d9cff6f71cc2a07");
    ("paper@a8.b16.w6/saxpy-8", "cd809a5c9b4389b79b8ca1514210b9db");
    ("paper@a8.b16.w6/iir-6", "e299c5dd2719f1f9af488278bb7048d6");
    ("paper@a8.b16.w6/matmul-3", "cebfa8cc8c64e594f22932f0c4b27823");
    ("paper@a8.b16.w6/fft-bfly-4", "f9a3644690c39b18783cd36b3f17bebe");
    ("paper@a8.b16.w6/dct4", "9fa56e1fda1cbae4a3787a62d1614022");
    ("paper@a8.b16.w6/corr-4-8", "879464fd0c1618fc0c8b240a964c6ec5");
    ("paper@a8.b16.w6/mavg-4-6", "8903f46bd6edac90f6e05041e9c5a7fe");
    ("paper@a8.b16.w6/clip-6", "d7a9c5e87c2f2e270af1c834474f2324");
    ("paper@a8.b16.w6/maxabs-8", "e278d3a17eb36639fa34c70447e1bc5e");
    ("paper@a8.b16.w6/poly-6", "f547e1a5233903903a91ac403f195196");
    ("paper@a8.b16.w6/cmul-4", "4c798e521e85dbf97d425c552205233c");
    ("paper@a8.b16.w6/manhattan-8", "baa73f3dcc24ed6482a1ed22ca386e61");
    ("paper@a8.b16.w6/clipmm-6", "bf7bea55231d0a392c98b1b53aea7e9b");
    ("paper@a8.b16.w6/cumsum-8", "ef18600991d9a2118dee15dc7d130600");
    ("paper@a8.b16.w6/iir1-8", "7a8e0fff4b6c6b1505cde08d2eff680d");
    ("paper@a8.b16.w6/mavg-acc-4-8", "0aecba04c898fc502a745c24940da0ea");
    ("paper@a8.b16.w6/crc8-4", "1e13f1e6c0648d44e25a1191c76ffb20");
    ("paper@a8.b16.w6/pack565-4", "cc1f6188d664d538b500191e14a504d6");
    ("dag-1000@a5.b10.w4/mobility", "ed08d07753a37ebb30eddc6e7528bcd6");
    ("dag-1000@a5.b10.w4/alap", "7f1c2f888b48f9f0ef67faa55be25d35");
    ("dag-1000@a5.b10.w4/cid", "83ce2282b5bd4f51f1b2b7483440e5a2");
    ("dag-1000@a3.b2.w1/mobility", "f70073a8c771b36d9ee54093ce2a787a");
    ("dag-1000@a3.b2.w1/alap", "05a7aa702f98c2cb88a3e1ebce53d4ec");
    ("dag-1000@a3.b2.w1/cid", "97f8020a52bb0675ae4e9cadebc23cca");
    ("dag-2000@a5.b10.w4/mobility", "9229a8d8c2574b1a3c9cc8588a2868e3");
    ("dag-2000@a5.b10.w4/alap", "bc8bd4216772053668b64c3595513359");
    ("dag-2000@a5.b10.w4/cid", "296c553139b36db66fbce45a4cd110ba");
    ("dag-2000@a3.b2.w1/mobility", "a7f0668fbdbb8f4618c8a39ebcd2d5cd");
    ("dag-2000@a3.b2.w1/alap", "12dcd03842755afa04811d93a8020ca1");
    ("dag-2000@a3.b2.w1/cid", "5b5125cca58c4c62d948b6058642161c");
    ("graph/fir-paper", "f55d245198d9c66b36fae7f4566df15b");
    ("graph/fir-16", "2ab5692a3ca38714a83a43e56be9bcc1");
    ("graph/fir-dl-8", "41853c7ca2c8ccad157c539ebbf0be82");
    ("graph/dot-8", "3d03817864ad4cf909d062146348dac8");
    ("graph/vscale-8", "5aa211ee05913a63226afe43683e7ad5");
    ("graph/saxpy-8", "ff380a106fb7c3be14131dfdd96f9289");
    ("graph/iir-6", "b7c272fcb304ecc57aacaf00932feb03");
    ("graph/matmul-3", "b6ffc22d1a0aa6b4fdcc685589203dbc");
    ("graph/fft-bfly-4", "2c608c7186f2ae5a3917fd30dc45067d");
    ("graph/dct4", "4ad4053cd5e8a31047a37b7176a706e0");
    ("graph/corr-4-8", "0f2718e7283e1d46b8de1d31a66ea6e1");
    ("graph/mavg-4-6", "05bb15c8b114839258306b1ef57ed401");
    ("graph/clip-6", "f6f381726fd9b3a855884211c484ab06");
    ("graph/maxabs-8", "b371314c79b401fc30e15b1c10b0d587");
    ("graph/poly-6", "2971ea4e00da0497180dcb545a2e3cd1");
    ("graph/cmul-4", "9d90fde3dfd2f9f860695d658e9dbeb0");
    ("graph/manhattan-8", "00a7a81fe25dff20ede4172eb023df9c");
    ("graph/clipmm-6", "9aac67f182105afc0d01e59fb36df231");
    ("graph/cumsum-8", "2687d9e1c992bb81055529cdb23f5379");
    ("graph/iir1-8", "71debc0749a75b09c411a8d7189fd511");
    ("graph/mavg-acc-4-8", "2e96ee58aa7b5f3401d2af4f35d63524");
    ("graph/crc8-4", "2070b27b0cdbf765576fc31528cbefea");
    ("graph/pack565-4", "f851416308b4d60ca2c2a546d5f3cfff");
    ("graph/fir-256", "de9d86e1b69ad6e0ce95e72bb0e7011b");
    ("job/fir-256", "4d5d3061d601b0066bb817cf02ad4266");
    ("graph/fir-dl-128", "fc9a4c9bd80ab1b5bbcb515d0e03c5a5");
    ("job/fir-dl-128", "be5e68e405d4fafeb8aa9483d19cfde5");
    ("graph/matmul-8", "f62ef2262e732312ada39b1b98be6ca8");
    ("job/matmul-8", "db2f3b951f8a4e69d06a24c890ddfcae");
    ("graph/corr-8-32", "fddd2365b8794be16c2fed15890f5f10");
    ("job/corr-8-32", "9028207aa51884699f3d683f572c73ad");
    ("graph/crc8-16", "ee0c396e3825944649b08603833aa82a");
    ("job/crc8-16", "f296812e5d941635fd48686e37c5b5f0");
    ("graph/pack565-32", "f057a143d3cdafdec5a760d9b3f5dbe1");
    ("job/pack565-32", "cc4e3199366e661afdcc853859521375");
    ("graph/dag-1000", "803c6047f48a36cee09e3b23c08868ac");
    ("graph/dag-2000", "59826ac3655b1b4b549370dd647c184a");
    ("remap/dag-1000@a3.b2.w1", "f70073a8c771b36d9ee54093ce2a787a");
    ("remap/dag-1000@a3.b4.w3", "e83bb08978a237353a74a9d2776e7ceb");
    ("remap/dag-1000@a3.b6.w6", "716000df25f362331aa406c3f22b4cb3");
    ("remap/dag-1000@a3.b16.w2", "f8bc9794e36e5efaeabd211ff53bb54e");
    ("remap/dag-1000@a4.b2.w4", "ea5664ded74124594d18c8422cbb5a80");
    ("remap/dag-1000@a4.b6.w1", "e130c5f3961d81bcdfda098558146fcb");
    ("remap/dag-2000@a4.b10.w3", "952e19dd18a1904ae6270d06da9e1f64");
    ("remap/dag-2000@a4.b16.w6", "73a5d2d29b48bdcae32aeced42607107");
    ("remap/dag-2000@a5.b4.w2", "0de1567d9d1706bca5e5bc70a63cfd5b");
    ("remap/dag-2000@a5.b6.w4", "870622843e375c55c855a261708ed097");
    ("remap/dag-2000@a5.b16.w1", "16668d4fda4dd04ce9a522d074114dd6");
    ("remap/dag-2000@a8.b2.w3", "8b300d521edc429f8b65998e46c62c3f");
    ("remap/crc8-16@a8.b4.w6", "748bcb3af4725628f3060c9bf20c563f");
    ("remap/crc8-16@a8.b10.w2", "9faa69bab0bedf88bfc5fad4493ef934");
    ("remap/crc8-16@a8.b16.w4", "54e3f86a08c5be73f851a3483fbd52b6");
    ("remap/crc8-16@a3.b4.w1", "e580bce69486abf96987316a6c9e8651");
    ("remap/crc8-16@a3.b6.w3", "a26cb267dcacf186ce061395a55d4e16");
    ("remap/crc8-16@a3.b10.w6", "67d9d1a030a78e8c4c6c6090a6cb086f");
    ("remap/matmul-8@a4.b2.w2", "80b01917f2232cecd4e12d8c3d1629ed");
    ("remap/matmul-8@a4.b4.w4", "6e65848c487e43374b62a2604a45d0a6");
    ("remap/matmul-8@a4.b10.w1", "574905077f8bb0aeaa69fea5b346ded1");
    ("remap/matmul-8@a4.b16.w3", "987aa416e6e1039304b377a0a48fecff");
    ("remap/matmul-8@a5.b2.w6", "9d1e810972017788043c98ab0dfa97b3");
    ("remap/matmul-8@a5.b6.w2", "f213c2d052b9d7e258d409e0780a99f7");
    ("remap/fir-256@a5.b10.w4", "4d5d3061d601b0066bb817cf02ad4266");
    ("remap/fir-256@a8.b2.w1", "80e830d31feadc81585f79a5e8787487");
    ("remap/fir-256@a8.b4.w3", "2d12f6fb86bbc4bf8119f4ab1078b0db");
    ("remap/fir-256@a8.b6.w6", "ae7092f78a439fe7356936f3be79bbcb");
    ("remap/fir-256@a8.b16.w2", "809a4175ab2161e333a50e7e1f426508");
    ("remap/fir-256@a3.b2.w4", "0587c9c7a744386ade18b27093b35415");
    ("digest-raw/fir-paper", "c1a351f78cecd6eccb7f9be861c3ad2c");
    ("digest-min/fir-paper", "1a74d9619a261892ed840aa64df026c5");
    ("digest-raw/fir-16", "ec5eb00cfc945c700edd9c4d5785ae1c");
    ("digest-min/fir-16", "da272a4807a96db974effbd426c957e5");
    ("digest-raw/fir-dl-8", "26b1f6db31f7cf5e0c08e1a2c1a22d52");
    ("digest-min/fir-dl-8", "2a3d0e3423e0c030c9e3ef06a55fc7b9");
    ("digest-raw/dot-8", "236bb6ee85b8d12d46d1b8d4d55c2e7b");
    ("digest-min/dot-8", "3b5aa5943ca75b4d3fb6d76c85da603d");
    ("digest-raw/vscale-8", "8abc804bb9d6ae650dbe603224127a36");
    ("digest-min/vscale-8", "2e74830d3f2e0fc5b829c905933b7a11");
    ("digest-raw/saxpy-8", "29c54b96ff75debaf87f3f18e0869aa6");
    ("digest-min/saxpy-8", "5e7a2fc471e6ed3674d77293a3d64e57");
    ("digest-raw/iir-6", "be21d872abba336b0acefdc57190c110");
    ("digest-min/iir-6", "fb7984f83e9e25188267549e6e18c239");
    ("digest-raw/matmul-3", "0bf41eea25e15645cbf9056fdef1bbed");
    ("digest-min/matmul-3", "a422416dcba663d83f8e62204d3d33f1");
    ("digest-raw/fft-bfly-4", "c6bb105ec676cbe4268d3ec69463942b");
    ("digest-min/fft-bfly-4", "7c9e3b7b43f96fdb5c548bbf680be269");
    ("digest-raw/dct4", "82461dd73391b9920ca1aa1f7cf33c9d");
    ("digest-min/dct4", "b08e84b57a19cf4854cd15f675c2cdcc");
    ("digest-raw/corr-4-8", "3bd34072e5e2a36436dc0269b2cbd632");
    ("digest-min/corr-4-8", "0f53157c0a9c8a70adae483ea0314731");
    ("digest-raw/mavg-4-6", "c96cf2147d9e2e255a9da3ff0af177c7");
    ("digest-min/mavg-4-6", "a1eef2cc7891e736211fe67e2649b202");
    ("digest-raw/clip-6", "ced726fdf08bae42d1bf47dfefd4b170");
    ("digest-min/clip-6", "d3054ad989a3c93b3b65c400715f835a");
    ("digest-raw/maxabs-8", "62f72314efef1f401130f5705f83e3ed");
    ("digest-min/maxabs-8", "aad61c75c0ae3b25345df8d54f677214");
    ("digest-raw/poly-6", "b35d32b9649f85c7f161b62b7c101e1c");
    ("digest-min/poly-6", "1d83d55a9d0dd576ca87c1d1a93bc191");
    ("digest-raw/cmul-4", "5fc1adc33c4f0512c87d172c9d91a0e8");
    ("digest-min/cmul-4", "944311889d402674769836de8b5854e7");
    ("digest-raw/manhattan-8", "a2883d5cc04daa69d84042fe2484a44d");
    ("digest-min/manhattan-8", "3ed069e50676e167cfa7b7ecc762ff9c");
    ("digest-raw/clipmm-6", "6c6a0b4d8e1288f7f0ab96535221e0f9");
    ("digest-min/clipmm-6", "5cb6d60ff83ccff4688f54beb1f1887e");
    ("digest-raw/cumsum-8", "5d8389b6684ff0ece55904eb20c0cb13");
    ("digest-min/cumsum-8", "7f99543da8dc4f7e8f034f9750837b92");
    ("digest-raw/iir1-8", "c8e574dda32d6e7da98963511c1ad6cf");
    ("digest-min/iir1-8", "81987dc30497338ab23513497a3dc8e6");
    ("digest-raw/mavg-acc-4-8", "860cb5dc3ee6517dac6e6d41d8bcf26e");
    ("digest-min/mavg-acc-4-8", "71067222cc255860189b38f11b7bf68b");
    ("digest-raw/crc8-4", "ba45411f52863dda6938a65ba4989c2d");
    ("digest-min/crc8-4", "e311637626402c0d74c6a3f98b9379d6");
    ("digest-raw/pack565-4", "94de4edc5edb2484235f851ee10ae3e2");
    ("digest-min/pack565-4", "05f048e3cecc71eb507b3676364c38fa");
    ("digest-raw/dag-1000", "b2ad88ecd36b81087f45565d7e7c719a");
    ("digest-min/dag-1000", "a78ca010ce559fdcaef42f2c1d7aa4de");
    ("digest-raw/dag-2000", "95b6432bbb1abc0f26407eaf8a34dd30");
    ("digest-min/dag-2000", "e99ba8162847dfda9213315c00c918fa");
    ("digest-raw/fir-256", "9da4a256baf10289f48af4154337f028");
    ("digest-raw/fir-dl-128", "5ce5db03820a496c21a6aed919952302");
    ("digest-raw/matmul-8", "78ad3a38539e9991701f33fbffc48eb4");
    ("digest-raw/corr-8-32", "72032b3379d206c7eeb5279c678265b7");
    ("digest-raw/crc8-16", "ebd995288706091dc71117fea9e2edb5");
    ("digest-raw/pack565-32", "0312b7dd72b27cedc1c29dd5f022496f");
  ]

let check_cases cases () =
  let mismatches =
    List.filter_map
      (fun (name, run) ->
        let actual = run () in
        match List.assoc_opt name expected with
        | Some want when String.equal want actual -> None
        | Some want -> Some (Printf.sprintf "%s: %s, want %s" name actual want)
        | None -> Some (Printf.sprintf "%s: %s, not in the table" name actual))
      cases
  in
  Alcotest.(check (list string)) "every job digest as recorded" [] mismatches

(* The mapping counters of the two DAGs at both tile points: every
   clustering, scheduling and allocation tally is part of the decisions. *)
let expected_counters =
  [
    ("dag-1000@a3.b2.w1/alloc.forwards", 0);
    ("dag-1000@a3.b2.w1/alloc.inserted_cycles", 1004);
    ("dag-1000@a3.b2.w1/alloc.level_retries", 1003);
    ("dag-1000@a3.b2.w1/alloc.moves", 1704);
    ("dag-1000@a3.b2.w1/alloc.preserve_copies", 0);
    ("dag-1000@a3.b2.w1/alloc.register_hits", 1704);
    ("dag-1000@a3.b2.w1/cluster.clusters", 789);
    ("dag-1000@a3.b2.w1/cluster.edges", 1295);
    ("dag-1000@a3.b2.w1/sched.displacements", 20737);
    ("dag-1000@a3.b2.w1/sched.levels", 263);
    ("dag-1000@a3.b2.w1/sched.levels_inserted", 245);
    ("dag-1000@a5.b10.w4/alloc.forwards", 0);
    ("dag-1000@a5.b10.w4/alloc.inserted_cycles", 342);
    ("dag-1000@a5.b10.w4/alloc.level_retries", 337);
    ("dag-1000@a5.b10.w4/alloc.moves", 1704);
    ("dag-1000@a5.b10.w4/alloc.preserve_copies", 0);
    ("dag-1000@a5.b10.w4/alloc.register_hits", 1704);
    ("dag-1000@a5.b10.w4/cluster.clusters", 789);
    ("dag-1000@a5.b10.w4/cluster.edges", 1295);
    ("dag-1000@a5.b10.w4/sched.displacements", 12292);
    ("dag-1000@a5.b10.w4/sched.levels", 158);
    ("dag-1000@a5.b10.w4/sched.levels_inserted", 140);
    ("dag-2000@a3.b2.w1/alloc.forwards", 0);
    ("dag-2000@a3.b2.w1/alloc.inserted_cycles", 1946);
    ("dag-2000@a3.b2.w1/alloc.level_retries", 1945);
    ("dag-2000@a3.b2.w1/alloc.moves", 3350);
    ("dag-2000@a3.b2.w1/alloc.preserve_copies", 0);
    ("dag-2000@a3.b2.w1/alloc.register_hits", 3350);
    ("dag-2000@a3.b2.w1/cluster.clusters", 1556);
    ("dag-2000@a3.b2.w1/cluster.edges", 2512);
    ("dag-2000@a3.b2.w1/sched.displacements", 104168);
    ("dag-2000@a3.b2.w1/sched.levels", 519);
    ("dag-2000@a3.b2.w1/sched.levels_inserted", 503);
    ("dag-2000@a5.b10.w4/alloc.forwards", 0);
    ("dag-2000@a5.b10.w4/alloc.inserted_cycles", 601);
    ("dag-2000@a5.b10.w4/alloc.level_retries", 590);
    ("dag-2000@a5.b10.w4/alloc.moves", 3350);
    ("dag-2000@a5.b10.w4/alloc.preserve_copies", 0);
    ("dag-2000@a5.b10.w4/alloc.register_hits", 3350);
    ("dag-2000@a5.b10.w4/cluster.clusters", 1556);
    ("dag-2000@a5.b10.w4/cluster.edges", 2512);
    ("dag-2000@a5.b10.w4/sched.displacements", 62164);
    ("dag-2000@a5.b10.w4/sched.levels", 312);
    ("dag-2000@a5.b10.w4/sched.levels_inserted", 296);
  ]

let test_counters () =
  let counters name clustering (t : Arch.tile) =
    let g = (Lazy.force clustering).Mapping.Cluster.graph in
    Fpfa_obs.Obs.reset ();
    Fpfa_obs.Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Fpfa_obs.Obs.disable ();
        Fpfa_obs.Obs.reset ())
      (fun () ->
        let clustering = Mapping.Cluster.run g in
        let sched = Mapping.Sched.run ~alu_count:t.Arch.alu_count clustering in
        ignore (Mapping.Alloc.run ~tile:t sched);
        List.filter_map
          (fun (counter, v) ->
            match String.split_on_char '.' counter with
            | ("cluster" | "sched" | "alloc") :: _ ->
              Some (Printf.sprintf "%s@%s/%s" name (tile_name t) counter, v)
            | _ -> None)
          (Fpfa_obs.Obs.counters ()))
  in
  let actual =
    List.concat_map
      (fun t -> counters "dag-1000" dag_1000 t @ counters "dag-2000" dag_2000 t)
      dag_tiles
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "every counter as recorded"
    expected_counters actual

let test_alloc_error () =
  let t = Arch.with_alu_count 1 Arch.paper_tile in
  let sched = Mapping.Sched.run ~alu_count:1 (Lazy.force dag_2000) in
  match Mapping.Alloc.run ~tile:t sched with
  | (_ : Mapping.Job.t) -> Alcotest.fail "the 2000-op DAG fits one PP's memory"
  | exception Mapping.Alloc.Allocation_error msg ->
    Alcotest.(check string) "error text" "no tile memory can hold 52 more words" msg

(* The worklist engine's tallies summed over the large kernels: its
   steps, rewrites and enqueues, and the firings of every rule. *)
let expected_pass_counters =
  [
    ("pass.steps", 25943);
    ("pass.rewrites", 11599);
    ("pass.enqueues", 32258);
    ("pass.fire.const-fold", 0);
    ("pass.fire.algebraic", 203);
    ("pass.fire.cse", 1635);
    ("pass.fire.store-to-fetch", 126);
    ("pass.fire.dead-store", 3246);
    ("pass.fire.dce", 6315);
    ("pass.fire.reassociate", 74);
  ]

let test_pass_counters () =
  let module Obs = Fpfa_obs.Obs in
  let names =
    [ "pass.steps"; "pass.rewrites"; "pass.enqueues" ]
    @ List.map
        (fun r -> "pass.fire." ^ r.Transform.Pass.rname)
        Transform.Simplify.default_rules
  in
  Obs.reset ();
  Obs.enable ();
  let actual =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        List.iter
          (fun (k : Kernels.t) -> ignore (Flow.map_source k.Kernels.source))
          large_kernels;
        List.map
          (fun name -> (name, Option.value (Obs.find_counter name) ~default:0))
          names)
  in
  Alcotest.(check (list (pair string int))) "every counter as recorded"
    expected_pass_counters actual

let groups =
  List.map
    (fun (v : Baseline.variant) -> ("kernels " ^ v.Baseline.vname, kernel_cases v))
    Baseline.all
  @ List.map
      (fun t -> ("kernels paper@" ^ tile_name t, tile_cases t))
      [ tile ~alus:3 ~buses:2 ~window:1; tile ~alus:8 ~buses:16 ~window:6 ]
  @ [
      ("dag-1000 priorities", dag_cases "dag-1000" dag_1000);
      ("dag-2000 priorities", dag_cases "dag-2000" dag_2000);
    ]

(* The canonical digest ([Cdfg.Serialize.digest], which the serve
   daemon reports) of the raw and minimised graph of every corpus kernel
   and DAG, and of the raw graph of every large kernel. *)
let canonical_cases () =
  let key = Cdfg.Serialize.digest in
  List.concat_map
    (fun (name, compile) ->
      let r = lazy (compile ()) in
      [ ("digest-raw/" ^ name, fun () -> key (Lazy.force r).Flow.raw_graph);
        ("digest-min/" ^ name, fun () -> key (Lazy.force r).Flow.graph) ])
    (sources Kernels.all @ dags)
  @ List.map
      (fun (k : Kernels.t) ->
        ( "digest-raw/" ^ k.Kernels.name,
          fun () ->
            key
              (Flow.Staged.raw_graph
                 (Flow.Staged.of_source ~config:Flow.default_config
                    k.Kernels.source)) ))
      large_kernels

(* Built when their test runs, so each group's compiles are dropped once
   it has been checked. The default config's corpus and DAG jobs are
   pinned above already, as paper/<kernel> and dag-<n>@a5.b10.w4/mobility. *)
let flow_groups =
  [
    ("minimised corpus",
     fun () -> flow_cases ~jobs:false (sources Kernels.all));
    ("minimised large",
     fun () -> flow_cases ~jobs:true (sources large_kernels));
    ("minimised dags", fun () -> flow_cases ~jobs:false dags);
    ("remap grid", remap_cases);
    ("canonical digests", canonical_cases);
  ]

let suite =
  List.map
    (fun (name, cases) -> Alcotest.test_case name `Quick (check_cases cases))
    groups
  @ List.map
      (fun (name, cases) ->
        Alcotest.test_case name `Quick (fun () -> check_cases (cases ()) ()))
      flow_groups
  @ [
      Alcotest.test_case "mapping counters" `Quick test_counters;
      Alcotest.test_case "allocation error text" `Quick test_alloc_error;
      Alcotest.test_case "large pass counters" `Quick test_pass_counters;
    ]
