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
     corpus kernel, the six large kernels and the two DAGs, under the
     default config and with [renumber] on (the serve daemon's config;
     those groups keep their [incremental] names and [-incr] keys), plus
     their jobs where no case above pins them, and the simplifier's
     counters over the large kernels. Every rewrite the simplifier fires
     shows up in these;
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

let renumbered = { Flow.default_config with Flow.renumber = true }

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
      (k.Kernels.name, fun config -> Flow.map_source ~config k.Kernels.source))
    ks

let dags =
  List.map
    (fun (ops, seed) ->
      ( Printf.sprintf "dag-%d" ops,
        fun config ->
          Flow.map_graph ~config (Fpfa_kernels.Random_graph.generate ~seed ~ops ())
      ))
    [ (1000, 1); (2000, 2) ]

(* One compile per program feeds its graph case and, with [~jobs], its
   job case. *)
let flow_cases ~config ~tag ~jobs programs =
  List.concat_map
    (fun (name, compile) ->
      let r = lazy (compile config) in
      (Printf.sprintf "graph%s/%s" tag name, fun () ->
          graph_digest (Lazy.force r).Flow.graph)
      :: (if jobs then
            [ (Printf.sprintf "job%s/%s" tag name, fun () ->
                  digest (Lazy.force r).Flow.job) ]
          else []))
    programs

let expected =
  [
    ("paper/fir-paper", "8e623295b3701552fda5d273d266a718");
    ("paper/fir-16", "d28a957f43c7750753d9a2dd6fae95c6");
    ("paper/fir-dl-8", "27f42f6cd20a021a28cee8c97176fc3a");
    ("paper/dot-8", "8f9b1f82cbedf20feea8d95ca232333f");
    ("paper/vscale-8", "05aeba10be298097c531fc90c18b395c");
    ("paper/saxpy-8", "5d64224c161d71048bfc2b0fef5e55d8");
    ("paper/iir-6", "2afb2a813e1b02891ea46a7bbdab250f");
    ("paper/matmul-3", "ef808b3701124f032a14c529c90be5e4");
    ("paper/fft-bfly-4", "c5b70f2b26136ecf2c43a54bee07fa0f");
    ("paper/dct4", "2b537e0d81b70d9b89401264e2bcffe5");
    ("paper/corr-4-8", "b86f5c8ac7b096962ab0e0e9e97f7106");
    ("paper/mavg-4-6", "a9dae3f102d8576c74691bffefefaf9d");
    ("paper/clip-6", "82e7e62d0d1a20f39d095680e4f500e4");
    ("paper/maxabs-8", "412d07cf2d4c59d4f559cc036c32dca1");
    ("paper/poly-6", "217b73db9ebd0db2daadecea7f2fc7d1");
    ("paper/cmul-4", "45d5a40935c3ada810807eec729285e7");
    ("paper/manhattan-8", "6dd4232bb5ef7deac934fb752d138fa3");
    ("paper/clipmm-6", "6460949b09857714b6c80712d1155099");
    ("paper/cumsum-8", "a67cdfd2df4bdb93a87a585cd2c47f11");
    ("paper/iir1-8", "723147cf559cb23e0dc34da90ba538db");
    ("paper/mavg-acc-4-8", "93036317f5f0a92b8c94e11e28c6826d");
    ("paper/crc8-4", "496c937f33baa67e5e669fbf0fc15eef");
    ("paper/pack565-4", "588f2103399c230559d98f3b599640c5");
    ("sequential/fir-paper", "8aeb14e04289f65afbd9c788be7631f1");
    ("sequential/fir-16", "3bf796567a48e5b2b689471a1b222877");
    ("sequential/fir-dl-8", "5370c806e4750534bedf919811e6e77c");
    ("sequential/dot-8", "fdeccb011f57bce0f71f806739d6e1b3");
    ("sequential/vscale-8", "9766be4e5ed747c746cd61af95b4a70f");
    ("sequential/saxpy-8", "80262bfac4c151450071b8d51d803c2c");
    ("sequential/iir-6", "8946f0a3ba8d67ad688531e58bd69919");
    ("sequential/matmul-3", "93fcad30baa8713e52cd21293cba7e95");
    ("sequential/fft-bfly-4", "3475dd1a26017a90410c467d2bc25503");
    ("sequential/dct4", "c0235a7d7b652c859627b959c1e09571");
    ("sequential/corr-4-8", "c5fcdf8f23849c7dfc911cfd104b20b4");
    ("sequential/mavg-4-6", "1af6eedb4f692e9bb7e2e10c3ebf1471");
    ("sequential/clip-6", "68df0145d92ef1ad00e160671f370d9c");
    ("sequential/maxabs-8", "a16aee928b5747586cab77d6e4506101");
    ("sequential/poly-6", "30122d8a3b554227c65b86ea60c275df");
    ("sequential/cmul-4", "ddc679889b5e6ae976a26e71d478de79");
    ("sequential/manhattan-8", "9071100eb6d4b851b4809f81ba0fa687");
    ("sequential/clipmm-6", "a7d17367c7b10c452562765851f7a834");
    ("sequential/cumsum-8", "83a4857aca7d8901255dd156d5baa204");
    ("sequential/iir1-8", "0d991a3b6e4c45d44e27968715418ac1");
    ("sequential/mavg-acc-4-8", "f02eaf8fea06d3cb1b4e23c533dbe682");
    ("sequential/crc8-4", "c929b8888d5a30a82ade160640250cca");
    ("sequential/pack565-4", "361c41c92d56fa638ea11178bafc4ca8");
    ("unit-ops/fir-paper", "7cef76a1585133311efb564914f3ac51");
    ("unit-ops/fir-16", "ae4bfff762c3819e89cda5f7602ae8b1");
    ("unit-ops/fir-dl-8", "545571ca99e4f929ed1beea2814a0038");
    ("unit-ops/dot-8", "1fa3a06449f941c46bb9626bd3fbf215");
    ("unit-ops/vscale-8", "204ba67131ca37c66b7ce4c4b9cba102");
    ("unit-ops/saxpy-8", "c857b6040c85a3a04c8b2cb57503f845");
    ("unit-ops/iir-6", "9c0556a970bc81a97b3cb7224e077f76");
    ("unit-ops/matmul-3", "355039a76347f96a085196e6f6748019");
    ("unit-ops/fft-bfly-4", "c5b70f2b26136ecf2c43a54bee07fa0f");
    ("unit-ops/dct4", "b90f6ca71127007e82e88ef188df9276");
    ("unit-ops/corr-4-8", "0f3158e68f94da8dfaf9c035883313a1");
    ("unit-ops/mavg-4-6", "cdf4a08546687e0dc48eb50ea22aa6f4");
    ("unit-ops/clip-6", "c2eac5cc180a2a2f867381b8b3a3c280");
    ("unit-ops/maxabs-8", "26c62168ae9aa4e0fdc3f2f4bbf16c4b");
    ("unit-ops/poly-6", "4771fd8a320e38265c0ce5207dc81885");
    ("unit-ops/cmul-4", "9f595cb8e01032e29d0dc71c7a455b45");
    ("unit-ops/manhattan-8", "91866ec3af1971de248a5f1300e8dbef");
    ("unit-ops/clipmm-6", "24bdf9a30049a010860b70ea12dce4a1");
    ("unit-ops/cumsum-8", "a67cdfd2df4bdb93a87a585cd2c47f11");
    ("unit-ops/iir1-8", "a796ff71b442f90c09ef4cdb80c4b30a");
    ("unit-ops/mavg-acc-4-8", "755b0031f68993e86636b2dd871515ed");
    ("unit-ops/crc8-4", "ccd3c5065da96a5ff5482d8fd73359c7");
    ("unit-ops/pack565-4", "7c2aaafc3086cf08054dac37e54a1a7d");
    ("sarkar/fir-paper", "33abe84f81adecfc44dfd7703b1f7e51");
    ("sarkar/fir-16", "ce17d3314e628fb1d5f6e1e3391d7e08");
    ("sarkar/fir-dl-8", "ccf402f5e47b6d1b17dd3e8313205fa9");
    ("sarkar/dot-8", "8f9b1f82cbedf20feea8d95ca232333f");
    ("sarkar/vscale-8", "05aeba10be298097c531fc90c18b395c");
    ("sarkar/saxpy-8", "5d64224c161d71048bfc2b0fef5e55d8");
    ("sarkar/iir-6", "3485c40d6885809f9b1650b4009ad8c0");
    ("sarkar/matmul-3", "d26ed5d177ebe912867273bcd593b786");
    ("sarkar/fft-bfly-4", "c5b70f2b26136ecf2c43a54bee07fa0f");
    ("sarkar/dct4", "02286332ef6ebd54ccdc2c49a6177a7d");
    ("sarkar/corr-4-8", "b86f5c8ac7b096962ab0e0e9e97f7106");
    ("sarkar/mavg-4-6", "6b9ce545e7ac5d6b6cb456de309d6da8");
    ("sarkar/clip-6", "c3b6f9d1fb6e36892ce2a0774a488c94");
    ("sarkar/maxabs-8", "412d07cf2d4c59d4f559cc036c32dca1");
    ("sarkar/poly-6", "217b73db9ebd0db2daadecea7f2fc7d1");
    ("sarkar/cmul-4", "45d5a40935c3ada810807eec729285e7");
    ("sarkar/manhattan-8", "851b861672560b3e5a6a6a20b4ee9493");
    ("sarkar/clipmm-6", "6460949b09857714b6c80712d1155099");
    ("sarkar/cumsum-8", "a67cdfd2df4bdb93a87a585cd2c47f11");
    ("sarkar/iir1-8", "35f15a4d97234860478f9897e182b819");
    ("sarkar/mavg-acc-4-8", "93036317f5f0a92b8c94e11e28c6826d");
    ("sarkar/crc8-4", "a6e19d407b246ce91fceb5829fa8a370");
    ("sarkar/pack565-4", "43c52c9d57884cb5a6ff99156c1ab911");
    ("no-locality/fir-paper", "eb4ff4f6b335296d20c044323ffc20e1");
    ("no-locality/fir-16", "3fc15f304b60623b2ae3d45434cc0fcf");
    ("no-locality/fir-dl-8", "d28601898af821dd034630f6127fab88");
    ("no-locality/dot-8", "35543b1f66230abdcc2ea6398c21f049");
    ("no-locality/vscale-8", "4d497a3acf7b5fe834f7d3069f8e5205");
    ("no-locality/saxpy-8", "173f78db80b00eb605969287d1fe92d5");
    ("no-locality/iir-6", "5eac351b91bff1d47076736c0c298905");
    ("no-locality/matmul-3", "abef00b01af58aede0a6600aea50f2c4");
    ("no-locality/fft-bfly-4", "7244b63257e43c668f9eafd11ee36b0f");
    ("no-locality/dct4", "85da68b2abe49cb986a999079435edcd");
    ("no-locality/corr-4-8", "e8959cbf5808c70c35c9c717095149f2");
    ("no-locality/mavg-4-6", "cbf7b26aefb99cc48c5b432c65e6c490");
    ("no-locality/clip-6", "22625944bb5762e09d0a0135571822bd");
    ("no-locality/maxabs-8", "c2cb3d1ae3934203504f2c3e02281502");
    ("no-locality/poly-6", "7e96d71b243a9b9b3b5aa111bb926b4f");
    ("no-locality/cmul-4", "ae4b47c8974da57e1d87186d3bd5bbd3");
    ("no-locality/manhattan-8", "e678a3b65301067e7a0c2ae90196fedf");
    ("no-locality/clipmm-6", "7df258bcea98b222541375a69e6dcea3");
    ("no-locality/cumsum-8", "789f133ecd4d8ba2a0be6b3a338c070a");
    ("no-locality/iir1-8", "ffed45ab7c1120cf5af8812ef810697e");
    ("no-locality/mavg-acc-4-8", "6e168e26e2d54b8d3427ee9b2124208a");
    ("no-locality/crc8-4", "f363cce092b7f082916d3da47bb84f68");
    ("no-locality/pack565-4", "308b938ba7af4a4827c4ae70ffd9b525");
    ("forwarding/fir-paper", "d04f002ed39055789ea664074e3c9d81");
    ("forwarding/fir-16", "c2923a5f2abee70bde8a7a76e8feaf11");
    ("forwarding/fir-dl-8", "fa236d938aca46bed4a16e57950857c5");
    ("forwarding/dot-8", "bf4cd33ac1a40f06ba1e7fa6068948b6");
    ("forwarding/vscale-8", "05aeba10be298097c531fc90c18b395c");
    ("forwarding/saxpy-8", "5d64224c161d71048bfc2b0fef5e55d8");
    ("forwarding/iir-6", "4452e7bf9362502e2ff1eec01d8978f2");
    ("forwarding/matmul-3", "7481a606a26ec87efe77e495750072a1");
    ("forwarding/fft-bfly-4", "c5b70f2b26136ecf2c43a54bee07fa0f");
    ("forwarding/dct4", "f6d0c61071e639975c52e66c7f9ff389");
    ("forwarding/corr-4-8", "e5cb77cb3578614a3451be7c7b164458");
    ("forwarding/mavg-4-6", "f73f7b15c69f89ac053169375dc0c225");
    ("forwarding/clip-6", "41770cddff77bc7e09f72180835ef034");
    ("forwarding/maxabs-8", "e856e656824c3bd2f580002fdebc06c1");
    ("forwarding/poly-6", "2da2c269fd929ea295618085317699ba");
    ("forwarding/cmul-4", "9a076ac1216e10bbee7af9ad89af777a");
    ("forwarding/manhattan-8", "953704d3eec59c90aae1c3a53f96b89f");
    ("forwarding/clipmm-6", "2b1c98e34ac3b43d14d82d79ee3f36b6");
    ("forwarding/cumsum-8", "1fec4ebbeb5be65cfe031d1fdd5efa9e");
    ("forwarding/iir1-8", "1bc6da26f1c0fb22df889b6342ba01ca");
    ("forwarding/mavg-acc-4-8", "de04265dd08ec188eae184b65faaf68f");
    ("forwarding/crc8-4", "b797d00ff82fa1b49a0ebf83baf7a9e8");
    ("forwarding/pack565-4", "e08459ade239e1d44e4fca4f19139cdf");
    ("interleaved/fir-paper", "ccbf228a209e5e7b63c9265a393ecdf9");
    ("interleaved/fir-16", "92b20c51f86563a4f728e5b62c8bf0ae");
    ("interleaved/fir-dl-8", "edd1a6d2b56022f1df7498a30298a803");
    ("interleaved/dot-8", "981d2474cd68caa6e173ff472c77aa2c");
    ("interleaved/vscale-8", "75795c8a1b89d30f42736d58090b601e");
    ("interleaved/saxpy-8", "8893d8cd7d1e9404f60d4302ac9870a4");
    ("interleaved/iir-6", "41647a8d64580051f57960bcc8fc7b91");
    ("interleaved/matmul-3", "e87ce81c8c35123b1222fb2c5e506768");
    ("interleaved/fft-bfly-4", "b9383625f74c35d63a805e6bd0209125");
    ("interleaved/dct4", "d50ece57d619ce94c092e8498ea246f0");
    ("interleaved/corr-4-8", "4dcc380325942e4042084e6de7315105");
    ("interleaved/mavg-4-6", "2b38130021b96486c545eaf5a5bbe61e");
    ("interleaved/clip-6", "3c5599e3452551b44991745bd0c9747f");
    ("interleaved/maxabs-8", "bc4560f28f2fef950e3bb969d70ab36f");
    ("interleaved/poly-6", "1a8bce74c4c027dbc217b2f13d49f439");
    ("interleaved/cmul-4", "ba150df6028b1e859e0d7f4d99b0d241");
    ("interleaved/manhattan-8", "001dabd6501222630a79ae6ba73c1cf9");
    ("interleaved/clipmm-6", "dc68da9abef8c07c85dc1e282dc895ea");
    ("interleaved/cumsum-8", "3583241fe5ec489a223dde553317f653");
    ("interleaved/iir1-8", "e80a0e85d36433e3f5da48574fc4cde3");
    ("interleaved/mavg-acc-4-8", "c9e60ca9890a17950f9de1d667a435fe");
    ("interleaved/crc8-4", "5bfac1314fe57518aeb0765bb48e8539");
    ("interleaved/pack565-4", "6bd72d0f0ea57ca44d4adc12fea1375d");
    ("paper@a3.b2.w1/fir-paper", "c114d3889a89d9d844e9ea098c94f5a4");
    ("paper@a3.b2.w1/fir-16", "b3711d2d420ecae76e5b703fd48f6c9b");
    ("paper@a3.b2.w1/fir-dl-8", "c3e2011fe670927dcbf2507b74db9cec");
    ("paper@a3.b2.w1/dot-8", "d508f1ba87462db6ba2f13c511b5b360");
    ("paper@a3.b2.w1/vscale-8", "7a9f75f0063fb77f61e151773315ff4a");
    ("paper@a3.b2.w1/saxpy-8", "69a06337d6fa275c6f2c0848d8441c63");
    ("paper@a3.b2.w1/iir-6", "438e0f07576982e993bce735e6fd1454");
    ("paper@a3.b2.w1/matmul-3", "229b52b7bc40e9d295ff089cba1b434b");
    ("paper@a3.b2.w1/fft-bfly-4", "708ba9a41c39469002e696caca7427e1");
    ("paper@a3.b2.w1/dct4", "5c49b6adbf14d64f31fa4b607a665323");
    ("paper@a3.b2.w1/corr-4-8", "523813f552e13ed442478a01d75d2397");
    ("paper@a3.b2.w1/mavg-4-6", "53fe316c011fb53270c8bd0cc1309445");
    ("paper@a3.b2.w1/clip-6", "3b78861a424fa0279a7a58cb7799b263");
    ("paper@a3.b2.w1/maxabs-8", "eaf6c534be22ac1b699cc4fe7d90989c");
    ("paper@a3.b2.w1/poly-6", "f7fad79bffb43c9a1e063e95ca5c0839");
    ("paper@a3.b2.w1/cmul-4", "40526093d8aede4c87c66e419e449f2e");
    ("paper@a3.b2.w1/manhattan-8", "e430fd948e0e3e3528c2520a586b407a");
    ("paper@a3.b2.w1/clipmm-6", "efec6b833fc5d1fd3efcb6038f4e5977");
    ("paper@a3.b2.w1/cumsum-8", "a7212bb79ec1e672b1d9e49c84c9721c");
    ("paper@a3.b2.w1/iir1-8", "25f29f4da341bf51fbf439466ce91fd6");
    ("paper@a3.b2.w1/mavg-acc-4-8", "cb2849bcd33b3b3e331b8c048b159684");
    ("paper@a3.b2.w1/crc8-4", "f2c4c28dfbd4827e45ac0bfcd061ef59");
    ("paper@a3.b2.w1/pack565-4", "49bb71dc7cde9d6e0247553bd44f1dda");
    ("paper@a8.b16.w6/fir-paper", "77461650162873dde916639389d95a48");
    ("paper@a8.b16.w6/fir-16", "72b9f8e1c0ab0e2066a42d2b63e0202a");
    ("paper@a8.b16.w6/fir-dl-8", "72028d282b07c8c0a2c531b4b01823ef");
    ("paper@a8.b16.w6/dot-8", "8ce13e69ea5be4285348dfa863b312e9");
    ("paper@a8.b16.w6/vscale-8", "468a7d33f001defdd640432e74480047");
    ("paper@a8.b16.w6/saxpy-8", "c900904c112e8391e836d53279e674bf");
    ("paper@a8.b16.w6/iir-6", "5db53916f15eebf4f4c9a4642b4c45a7");
    ("paper@a8.b16.w6/matmul-3", "2cc6c6ede5cec81e74091e830c2b9bd7");
    ("paper@a8.b16.w6/fft-bfly-4", "9112670e852cef1e8a8db0904a43d945");
    ("paper@a8.b16.w6/dct4", "9fa56e1fda1cbae4a3787a62d1614022");
    ("paper@a8.b16.w6/corr-4-8", "33e868006333db69dea387faabd3bdbf");
    ("paper@a8.b16.w6/mavg-4-6", "9f86a262b0897258ef7a5f3db5f61191");
    ("paper@a8.b16.w6/clip-6", "27710b4db7486f35d0b8e06249bf8a63");
    ("paper@a8.b16.w6/maxabs-8", "2664a4e7acc7abbb8812f65f34faffd9");
    ("paper@a8.b16.w6/poly-6", "413e6132293149706921e633a320b244");
    ("paper@a8.b16.w6/cmul-4", "b139d2a677c0697a3b977b4d30b610c6");
    ("paper@a8.b16.w6/manhattan-8", "1218ece665280566116b1bde12b8b971");
    ("paper@a8.b16.w6/clipmm-6", "3f694d1c03c1d6497658920163a5ecd3");
    ("paper@a8.b16.w6/cumsum-8", "44efcae1e7819757be07ed1e3039cecd");
    ("paper@a8.b16.w6/iir1-8", "77f0b9175b88979ba7e65a706c543916");
    ("paper@a8.b16.w6/mavg-acc-4-8", "4c4ddd9a986c9e2dca1d14d444a6b1ce");
    ("paper@a8.b16.w6/crc8-4", "5c5980154766def5cbcf013bbe08ebdd");
    ("paper@a8.b16.w6/pack565-4", "1ce20f028e12830f56f6355e5cadaea7");
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
    ("graph/fir-paper", "d2526556adc140dfde163355b0dfc978");
    ("graph/fir-16", "6a8d76a8670b6c8016195725e4839724");
    ("graph/fir-dl-8", "622d89800c3b87542a6e34a8823d4669");
    ("graph/dot-8", "c54fb100158f554e018ed72e4e286ada");
    ("graph/vscale-8", "bbad6a5cb04f3096bbfc157d7c4718c1");
    ("graph/saxpy-8", "6483a5b859c798c4d0ceae4049789a7a");
    ("graph/iir-6", "f9b8dd0a539ff002289c28f797d3220a");
    ("graph/matmul-3", "065f8e9c01e6fd7e1ad8ba6381917509");
    ("graph/fft-bfly-4", "77e274efae7f7db52c7239bc3c4e5787");
    ("graph/dct4", "4ad4053cd5e8a31047a37b7176a706e0");
    ("graph/corr-4-8", "8da66e90984a02b309cc00cd4bc7f624");
    ("graph/mavg-4-6", "a49904d3d9ec043510d55c6f246f6d5f");
    ("graph/clip-6", "50ff398a9da75bac108fc53f6a2b7a7c");
    ("graph/maxabs-8", "2964e4046a9fcdff72c5e66c319ffce3");
    ("graph/poly-6", "431e0408263f9f2e021e537e5fabe34a");
    ("graph/cmul-4", "fe647013d8137811bc6192b7421af4fe");
    ("graph/manhattan-8", "d58c930bef29e5e2f8d8e01d24ebd6ff");
    ("graph/clipmm-6", "ba9db847b7d3cbe94dc74f5b6a5c655a");
    ("graph/cumsum-8", "343322f2cfa2609081fe6b8b195b58fa");
    ("graph/iir1-8", "af43e50a4564fbc5a1c978d2a0723b82");
    ("graph/mavg-acc-4-8", "5a92bc7f40ca25fe70f2af0c5f350fce");
    ("graph/crc8-4", "0e8e619c1a5d707a32c55653f9dc0729");
    ("graph/pack565-4", "ec93ecdf15ee5ba548ffa4f57ea73e2f");
    ("graph/fir-256", "e598c3ebb9c2b410bec91cd291907a0c");
    ("job/fir-256", "1f4b9ba94b2429284258aa4f45162e77");
    ("graph/fir-dl-128", "fe8172cf7409dd190cd90decf801d21e");
    ("job/fir-dl-128", "d60a455a6b3fa0b83ecf258ca2f9608e");
    ("graph/matmul-8", "f838c6b88e964a555cecc598af1482fd");
    ("job/matmul-8", "ded96a781832c2c445809fd48ae0cb89");
    ("graph/corr-8-32", "7a155995ac1e322f76c998ef7a229d6f");
    ("job/corr-8-32", "53675016b599de7ffe91c88491c738b8");
    ("graph/crc8-16", "5e7409f287c36ddc18b63a54c3df657b");
    ("job/crc8-16", "0ec10ecf404686457c49855dca588f1f");
    ("graph/pack565-32", "9952cf248f34c36154aefae7d7ec77b3");
    ("job/pack565-32", "3bd348a58aa0008cf945b02bc235ca5e");
    ("graph/dag-1000", "803c6047f48a36cee09e3b23c08868ac");
    ("graph/dag-2000", "59826ac3655b1b4b549370dd647c184a");
    ("graph-incr/fir-paper", "621b9f2b318bd596b50f2ad4d636c157");
    ("job-incr/fir-paper", "a968b8af47dcf2dc723587046f37dc9c");
    ("graph-incr/fir-16", "5f57775f4586c2c84db4810e91621f00");
    ("job-incr/fir-16", "1d8ad76f3c5b23fca00b8c5df02520da");
    ("graph-incr/fir-dl-8", "bbf288000bc18c2edc26fb8fe81028e6");
    ("job-incr/fir-dl-8", "908e3626c4c985f4bbd3d01759bbf6b4");
    ("graph-incr/dot-8", "b7b1b541663be2aa1fa435f7d2e43a84");
    ("job-incr/dot-8", "b6b5d45cbd891072d87e2cfd2c8f646d");
    ("graph-incr/vscale-8", "bc0dcf8dbe0086d613fa7e428584a542");
    ("job-incr/vscale-8", "afa2d608e457393a7b7eed458dea3689");
    ("graph-incr/saxpy-8", "0df560b3a7c784f60d625d0ce55224c6");
    ("job-incr/saxpy-8", "d92d3ee062327366221ae20b30a1fddd");
    ("graph-incr/iir-6", "6f515a352c8e1fa2d36a1930e0780aa2");
    ("job-incr/iir-6", "80ca36f1506f65d1336b110e2e139ece");
    ("graph-incr/matmul-3", "d70884da0805fb7c68b93d66e18320d7");
    ("job-incr/matmul-3", "efb123d1fcf65e1f8e1747ed83ea07a5");
    ("graph-incr/fft-bfly-4", "bde53136c9934f801b5003acce5ff718");
    ("job-incr/fft-bfly-4", "f61dc438cb368b07020c4253939926d5");
    ("graph-incr/dct4", "e3cffe608484f887c591c3a6c92325f3");
    ("job-incr/dct4", "04e58b39f6f1fe8f443206659e1233ef");
    ("graph-incr/corr-4-8", "a88e18c7f9e999125fb899c13a9c1982");
    ("job-incr/corr-4-8", "f2aa46e10e2d7ae7e187eaf3689aba31");
    ("graph-incr/mavg-4-6", "975d601fb4c663dab23a9dabcec0f933");
    ("job-incr/mavg-4-6", "c4946d0270f41baba95e210b81d07947");
    ("graph-incr/clip-6", "1c466b9a535ac76f19edd20715664c59");
    ("job-incr/clip-6", "468dd70cbd2bb1dcf140e16a54fa8dd0");
    ("graph-incr/maxabs-8", "b162dc9c583b53a88849b32cd7f2dc97");
    ("job-incr/maxabs-8", "03599f651e73d0f8f7d79a898913b593");
    ("graph-incr/poly-6", "854093e83b39bac22720e53ea7970601");
    ("job-incr/poly-6", "8a0bbdf96d2a7856ad4b95e9ea94b665");
    ("graph-incr/cmul-4", "01fb80a7a015a2c9728ce9aa65910fb9");
    ("job-incr/cmul-4", "cd7993de3fcd4ed4e6ae1c3338a00bc9");
    ("graph-incr/manhattan-8", "f6e4d47ef1d267646606839fd02bdbea");
    ("job-incr/manhattan-8", "f28b113c4b2d7cef805f7f493310fb58");
    ("graph-incr/clipmm-6", "514e3f08edc8798f3d0017dc05d1e344");
    ("job-incr/clipmm-6", "40829fe46534ae1c4a746c03a2d3080c");
    ("graph-incr/cumsum-8", "70208dff4afa545c2af8fb24d3fd001a");
    ("job-incr/cumsum-8", "dddfe26697b4a1d7f1697656e4cb8e99");
    ("graph-incr/iir1-8", "2358b9892564d1b830b427d73c1fc68c");
    ("job-incr/iir1-8", "d913b19ee227c0082bfa4ef135dd866f");
    ("graph-incr/mavg-acc-4-8", "4cf6c3b4eb98f4884729755cb5feec82");
    ("job-incr/mavg-acc-4-8", "65d668f883755b0e511283c6f68f22f8");
    ("graph-incr/crc8-4", "768450029d7139f91c80f939d57d02ea");
    ("job-incr/crc8-4", "58665408a745fb307fc577f03162680a");
    ("graph-incr/pack565-4", "3714e3658e1945dd9e8275f230ab3eac");
    ("job-incr/pack565-4", "d78b6540d0cd9530c67c5fdb9f04cf5b");
    ("graph-incr/fir-256", "e056b0c7db0ee64e6ac0f3156e4c1d08");
    ("job-incr/fir-256", "e64e255ecb351f5239a3529c5a2810c0");
    ("graph-incr/fir-dl-128", "8a72240de3dab3a16a48ba07eda56045");
    ("job-incr/fir-dl-128", "297da6dcb34f397c07deac4bc5414205");
    ("graph-incr/matmul-8", "2315ee08e599f5a7362752ce9576f6b7");
    ("job-incr/matmul-8", "5564d4bc428f0f7d3806b4d5cdd830c6");
    ("graph-incr/corr-8-32", "533f2007977ebb4805f865a248ad9475");
    ("job-incr/corr-8-32", "460cd61f4c23a279f19fef640e6c69d9");
    ("graph-incr/crc8-16", "319120e88805ee08cfbf7979f8062aa3");
    ("job-incr/crc8-16", "d3f481bc7fc36c1d9ddf48afb0c4ec3a");
    ("graph-incr/pack565-32", "11381704de45a5aca3f91460d315bdf3");
    ("job-incr/pack565-32", "5e5a6c0be5bfedf3f944158e212cbbc9");
    ("graph-incr/dag-1000", "9b6c94ab26047ba6ac80bdb329f2b726");
    ("job-incr/dag-1000", "e266114289853237250143257419a7b2");
    ("graph-incr/dag-2000", "84a886751acb5767fdce6a698aad8365");
    ("job-incr/dag-2000", "de3f7e3dd7be5e66be63573686cc643f");
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
    ("remap/crc8-16@a8.b4.w6", "91596917c56d6f763551ad23cfabbe77");
    ("remap/crc8-16@a8.b10.w2", "3d3b5ef06ef3125a7dbcdff66f2f3de9");
    ("remap/crc8-16@a8.b16.w4", "d93ead7ebcd7011a04621c875a6f8b57");
    ("remap/crc8-16@a3.b4.w1", "58c947429f58e98fff5b3dddb81d94e4");
    ("remap/crc8-16@a3.b6.w3", "a7a5f23fd3ecd4fad54f762a8342eecc");
    ("remap/crc8-16@a3.b10.w6", "8cb9bc5caa183bc7f7fba3a269e7eb51");
    ("remap/matmul-8@a4.b2.w2", "59aa9bbd87c8b633e1ebaf70588fffe4");
    ("remap/matmul-8@a4.b4.w4", "3661a402b4a49e33dcd2e68466c40286");
    ("remap/matmul-8@a4.b10.w1", "4ce19a3053bd4652b11493a43fa3d11a");
    ("remap/matmul-8@a4.b16.w3", "bbd483822346fbc6ba2a3932b5bb2fe9");
    ("remap/matmul-8@a5.b2.w6", "ad2d88acda136822a4e027b3a57cf058");
    ("remap/matmul-8@a5.b6.w2", "f66c3f1f430a58d89105bee56a5d4af3");
    ("remap/fir-256@a5.b10.w4", "1f4b9ba94b2429284258aa4f45162e77");
    ("remap/fir-256@a8.b2.w1", "4cba4875865e5f02e4936d6398e18e90");
    ("remap/fir-256@a8.b4.w3", "c8936e0cf1cda904ed69df95de1e0fb9");
    ("remap/fir-256@a8.b6.w6", "a6329a004eb129c8d6483415958d263e");
    ("remap/fir-256@a8.b16.w2", "07b41596a0067df79dbc8b96e9d063e4");
    ("remap/fir-256@a3.b2.w4", "8f2acaffc305a5b44c870ad420926e61");
    ("digest-raw/fir-paper", "349995e6baa6f58585d049ebe29804d7");
    ("digest-min/fir-paper", "1a74d9619a261892ed840aa64df026c5");
    ("digest-raw/fir-16", "8437ca05cef5467d5a3e245cbc21522c");
    ("digest-min/fir-16", "da272a4807a96db974effbd426c957e5");
    ("digest-raw/fir-dl-8", "64c2da0bf94a38a99b4023e7e792d88e");
    ("digest-min/fir-dl-8", "7886e02d7cd9c8d0180ba0090f6b4b28");
    ("digest-raw/dot-8", "086862dff0c8b9ba247393426ade339d");
    ("digest-min/dot-8", "3b5aa5943ca75b4d3fb6d76c85da603d");
    ("digest-raw/vscale-8", "452fb811a32deb34fe570a985e51ea0d");
    ("digest-min/vscale-8", "2e74830d3f2e0fc5b829c905933b7a11");
    ("digest-raw/saxpy-8", "1d2ba5c6dc99f8ee04c52815e13e3c51");
    ("digest-min/saxpy-8", "5e7a2fc471e6ed3674d77293a3d64e57");
    ("digest-raw/iir-6", "2b328aff62c09467a4cf568f934232d9");
    ("digest-min/iir-6", "fb7984f83e9e25188267549e6e18c239");
    ("digest-raw/matmul-3", "c25d04efb19b74118ac81bbf6d28baaf");
    ("digest-min/matmul-3", "a422416dcba663d83f8e62204d3d33f1");
    ("digest-raw/fft-bfly-4", "e420efbc051c75ff7e5466e196b7171f");
    ("digest-min/fft-bfly-4", "7c9e3b7b43f96fdb5c548bbf680be269");
    ("digest-raw/dct4", "aca95f64297d4560b977886f713b12f8");
    ("digest-min/dct4", "b08e84b57a19cf4854cd15f675c2cdcc");
    ("digest-raw/corr-4-8", "6220e9854c2927dc90dc6d25c0f6a7c5");
    ("digest-min/corr-4-8", "0f53157c0a9c8a70adae483ea0314731");
    ("digest-raw/mavg-4-6", "f2f447e27e30f7930c9c1f10b20d7531");
    ("digest-min/mavg-4-6", "a1eef2cc7891e736211fe67e2649b202");
    ("digest-raw/clip-6", "f4573d1a85ea8334d0fcc75e2cdb2020");
    ("digest-min/clip-6", "d3054ad989a3c93b3b65c400715f835a");
    ("digest-raw/maxabs-8", "a8400f1468c08a052773042ce3eccc73");
    ("digest-min/maxabs-8", "aad61c75c0ae3b25345df8d54f677214");
    ("digest-raw/poly-6", "c02ae74cd0d40a91ea1ef6868ecc81b2");
    ("digest-min/poly-6", "1d83d55a9d0dd576ca87c1d1a93bc191");
    ("digest-raw/cmul-4", "f5ca5cfd10f8ff72237e5d94d4a4abee");
    ("digest-min/cmul-4", "944311889d402674769836de8b5854e7");
    ("digest-raw/manhattan-8", "853f24819cef0684eb7db69253bcd3b7");
    ("digest-min/manhattan-8", "3ed069e50676e167cfa7b7ecc762ff9c");
    ("digest-raw/clipmm-6", "45d311930ff5bba01ce3a376f06b5da9");
    ("digest-min/clipmm-6", "5cb6d60ff83ccff4688f54beb1f1887e");
    ("digest-raw/cumsum-8", "c58ae0f1a92106db7e7992b80e68b7c6");
    ("digest-min/cumsum-8", "7f99543da8dc4f7e8f034f9750837b92");
    ("digest-raw/iir1-8", "9fc664ab048a329cfa61dc28328ce836");
    ("digest-min/iir1-8", "81987dc30497338ab23513497a3dc8e6");
    ("digest-raw/mavg-acc-4-8", "f3ef6bd310b2aafbf64adc05d94499e0");
    ("digest-min/mavg-acc-4-8", "71067222cc255860189b38f11b7bf68b");
    ("digest-raw/crc8-4", "2d908816d71e466ef5761bdafa9357dd");
    ("digest-min/crc8-4", "e311637626402c0d74c6a3f98b9379d6");
    ("digest-raw/pack565-4", "d0df943be588c131d06eedabcd412e4f");
    ("digest-min/pack565-4", "05f048e3cecc71eb507b3676364c38fa");
    ("digest-raw/dag-1000", "b2ad88ecd36b81087f45565d7e7c719a");
    ("digest-min/dag-1000", "a78ca010ce559fdcaef42f2c1d7aa4de");
    ("digest-raw/dag-2000", "95b6432bbb1abc0f26407eaf8a34dd30");
    ("digest-min/dag-2000", "e99ba8162847dfda9213315c00c918fa");
    ("digest-raw/fir-256", "a0cb361fea6b1775645f45e8aca2f28f");
    ("digest-raw/fir-dl-128", "d6d7f1d27071038fb6ceb2696904c7ff");
    ("digest-raw/matmul-8", "e7e1481b7086cfeb62228943edb09de5");
    ("digest-raw/corr-8-32", "9912498f2506290dc759509523b74873");
    ("digest-raw/crc8-16", "b767c40a61f11c5c20c4a0d4196be673");
    ("digest-raw/pack565-32", "c835bd87d22f8344661e41dd604f6efb");
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
    ("dag-1000@a3.b2.w1/alloc.inserted_cycles", 1003);
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
    ("dag-1000@a5.b10.w4/alloc.inserted_cycles", 337);
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
    ("dag-2000@a3.b2.w1/alloc.inserted_cycles", 1945);
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
    ("dag-2000@a5.b10.w4/alloc.inserted_cycles", 590);
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
    ("pass.steps", 50004);
    ("pass.rewrites", 43819);
    ("pass.enqueues", 72104);
    ("pass.fire.const-fold", 4094);
    ("pass.fire.algebraic", 871);
    ("pass.fire.cse", 5325);
    ("pass.fire.store-to-fetch", 8109);
    ("pass.fire.dead-store", 3246);
    ("pass.fire.dce", 22100);
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

(* The canonical digest ([Cdfg.Serialize.digest], the serve daemon's
   cache key) of the raw and minimised graph of every corpus kernel and
   DAG, and of the raw graph of every large kernel. *)
let canonical_cases () =
  let key = Cdfg.Serialize.digest in
  List.concat_map
    (fun (name, compile) ->
      let r = lazy (compile Flow.default_config) in
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
    ("minimised corpus", fun () ->
        flow_cases ~config:Flow.default_config ~tag:"" ~jobs:false
          (sources Kernels.all));
    ("minimised large", fun () ->
        flow_cases ~config:Flow.default_config ~tag:"" ~jobs:true
          (sources large_kernels));
    ("minimised dags", fun () ->
        flow_cases ~config:Flow.default_config ~tag:"" ~jobs:false dags);
    ("incremental corpus", fun () ->
        flow_cases ~config:renumbered ~tag:"-incr" ~jobs:true
          (sources Kernels.all));
    ("incremental large", fun () ->
        flow_cases ~config:renumbered ~tag:"-incr" ~jobs:true
          (sources large_kernels));
    ("incremental dags", fun () ->
        flow_cases ~config:renumbered ~tag:"-incr" ~jobs:true dags);
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
