// Int8-quantized cache blocks: round-trip error bounds of the quantizer,
// dense packing through BlockStorage and the hybrid assigner, block
// conservation through export->import migration with raw-code transport,
// swap stability (requantization idempotence end to end), the admission
// capacity each encoding buys at equal pool bytes, and the bit-identity
// guarantee when quantization is off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cache/block_pool.h"
#include "cache/cache_map.h"
#include "cache/cache_types.h"
#include "cache/hybrid_assigner.h"
#include "cache/migration_image.h"
#include "cache/quantization.h"
#include "common/rng.h"
#include "engine/block_storage.h"
#include "engine/inference_engine.h"
#include "workload/length_sampler.h"

namespace aptserve {
namespace {

ModelConfig Cfg() { return ModelConfig::Tiny(); }

std::vector<int32_t> Prompt(int32_t n, int32_t base = 3) {
  std::vector<int32_t> p(n);
  for (int32_t i = 0; i < n; ++i) p[i] = (base + i * 7) % Cfg().vocab_size;
  return p;
}

CacheEncodingPolicy AllInt8(bool quantize_transit = false) {
  CacheEncodingPolicy policy;
  policy.kv = BlockEncoding::kInt8;
  policy.hidden = BlockEncoding::kInt8;
  policy.quantize_migration_payload = quantize_transit;
  return policy;
}

std::vector<float> RandomVec(Rng* rng, int32_t n, double scale = 1.0) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, scale));
  return v;
}

TEST(QuantizationTest, RoundTripWithinHalfScale) {
  Rng rng(5);
  for (int32_t n : {1, 7, 32, 255}) {
    const std::vector<float> x = RandomVec(&rng, n, 10.0);
    const QuantParams p = ComputeQuantParams(x.data(), n);
    std::vector<uint8_t> codes(n);
    std::vector<float> back(n);
    QuantizeVector(x.data(), n, p, codes.data());
    DequantizeVector(codes.data(), n, p, back.data());
    for (int32_t i = 0; i < n; ++i) {
      // Documented bound: at most scale/2 per value (plus fp slack).
      ASSERT_LE(std::abs(x[i] - back[i]), 0.5f * p.scale + 1e-4f * p.scale)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(QuantizationTest, ConstantVectorExact) {
  std::vector<float> x(16, 3.25f);
  const QuantParams p = ComputeQuantParams(x.data(), 16);
  EXPECT_EQ(p.scale, 0.0f);
  EXPECT_EQ(p.zero, 3.25f);
  std::vector<uint8_t> codes(16);
  std::vector<float> back(16);
  QuantizeVector(x.data(), 16, p, codes.data());
  DequantizeVector(codes.data(), 16, p, back.data());
  for (float v : back) ASSERT_EQ(v, 3.25f);
}

TEST(QuantizationTest, RequantizationIdempotent) {
  // quant(dequant(q)) == q: what makes fp32 staging round-trips (swap
  // out/in, lossy transit) stable after the first quantization.
  Rng rng(6);
  for (int32_t n : {8, 33, 128}) {
    const std::vector<float> x = RandomVec(&rng, n, 4.0);
    const QuantParams p1 = ComputeQuantParams(x.data(), n);
    std::vector<uint8_t> q1(n);
    std::vector<float> back(n);
    QuantizeVector(x.data(), n, p1, q1.data());
    DequantizeVector(q1.data(), n, p1, back.data());

    const QuantParams p2 = ComputeQuantParams(back.data(), n);
    std::vector<uint8_t> q2(n);
    QuantizeVector(back.data(), n, p2, q2.data());
    std::vector<float> back2(n);
    DequantizeVector(q2.data(), n, p2, back2.data());
    ASSERT_EQ(back2, back) << "n=" << n;
  }
}

TEST(QuantizedStorageTest, WriteReadBoundedNoSlotAliasing) {
  // 3 physical blocks of 4 fp32 slots; an int8 map packs 16 token slots
  // into each. Fill every (layer, pos) with a distinct vector, then verify
  // all of them — a packing/offset bug shows up as cross-slot corruption.
  const int32_t blocks = 3, bs = 4, layers = 2, dim = 16;
  BlockStorage storage(blocks, bs, layers, dim);
  CacheMap map(CacheType::kHidden, bs * kInt8SlotPack, BlockEncoding::kInt8);
  map.AppendBlocks(CacheComponent::kHidden, {0, 2});
  const int32_t tokens = 2 * bs * kInt8SlotPack;  // both blocks full
  map.AdvanceTokens(tokens);

  Rng rng(7);
  std::vector<std::vector<float>> written;
  for (int32_t layer = 0; layer < layers; ++layer) {
    for (int32_t pos = 0; pos < tokens; ++pos) {
      written.push_back(RandomVec(&rng, dim, 2.0));
      storage.WriteVector(map, CacheComponent::kHidden, layer, pos,
                          written.back().data());
    }
  }
  size_t idx = 0;
  std::vector<float> out(dim);
  for (int32_t layer = 0; layer < layers; ++layer) {
    for (int32_t pos = 0; pos < tokens; ++pos, ++idx) {
      storage.ReadVector(map, CacheComponent::kHidden, layer, pos, out.data());
      const std::vector<float>& want = written[idx];
      const QuantParams p = ComputeQuantParams(want.data(), dim);
      for (int32_t i = 0; i < dim; ++i) {
        ASSERT_LE(std::abs(want[i] - out[i]), 0.5f * p.scale + 1e-4f * p.scale)
            << "layer=" << layer << " pos=" << pos << " i=" << i;
      }
    }
  }

  // Gather must agree with per-position reads exactly (same dequantize).
  std::vector<float> gathered(static_cast<size_t>(tokens) * dim);
  storage.Gather(map, CacheComponent::kHidden, 1, tokens, gathered.data());
  for (int32_t pos = 0; pos < tokens; ++pos) {
    storage.ReadVector(map, CacheComponent::kHidden, 1, pos, out.data());
    for (int32_t i = 0; i < dim; ++i) {
      ASSERT_EQ(gathered[static_cast<size_t>(pos) * dim + i], out[i]);
    }
  }
}

TEST(QuantizedStorageTest, RawTransportExact) {
  // ReadQuantized -> WriteQuantized must hand codes over bit-exactly:
  // dequantized reads on the destination equal the source's.
  const int32_t bs = 4, layers = 1, dim = 8;
  BlockStorage src(2, bs, layers, dim), dst(2, bs, layers, dim);
  CacheMap src_map(CacheType::kHidden, bs * kInt8SlotPack,
                   BlockEncoding::kInt8);
  CacheMap dst_map(CacheType::kHidden, bs * kInt8SlotPack,
                   BlockEncoding::kInt8);
  src_map.AppendBlocks(CacheComponent::kHidden, {1});
  dst_map.AppendBlocks(CacheComponent::kHidden, {0});
  src_map.AdvanceTokens(bs * kInt8SlotPack);
  dst_map.AdvanceTokens(bs * kInt8SlotPack);

  Rng rng(8);
  std::vector<uint8_t> codes(dim);
  std::vector<float> a(dim), b(dim);
  for (int32_t pos = 0; pos < bs * kInt8SlotPack; ++pos) {
    const std::vector<float> v = RandomVec(&rng, dim, 3.0);
    src.WriteVector(src_map, CacheComponent::kHidden, 0, pos, v.data());
    QuantParams p;
    src.ReadQuantized(src_map, CacheComponent::kHidden, 0, pos, codes.data(),
                      &p);
    dst.WriteQuantized(dst_map, CacheComponent::kHidden, 0, pos, codes.data(),
                       p);
    src.ReadVector(src_map, CacheComponent::kHidden, 0, pos, a.data());
    dst.ReadVector(dst_map, CacheComponent::kHidden, 0, pos, b.data());
    ASSERT_EQ(a, b) << "pos=" << pos;
  }
}

TEST(QuantizedAssignerTest, Int8TiersPackFourTimesTheTokens) {
  BlockPool pool(64, 16);
  HybridCacheAssigner assigner(&pool);

  // Default fp32 policy.
  EXPECT_EQ(assigner.SlotsPerBlockFor(CacheType::kKV), 16);
  EXPECT_EQ(assigner.BlocksNeeded(CacheType::kKV, 100), 2 * 7);
  EXPECT_EQ(assigner.BlocksNeeded(CacheType::kHidden, 100), 7);

  assigner.SetEncodingPolicy(AllInt8());
  EXPECT_EQ(assigner.SlotsPerBlockFor(CacheType::kKV), 64);
  EXPECT_EQ(assigner.BlocksNeeded(CacheType::kKV, 100), 2 * 2);
  EXPECT_EQ(assigner.BlocksNeeded(CacheType::kHidden, 100), 2);

  // CreateFilled allocates at the packed density and the map carries the
  // per-map slots-per-block so capacity math matches.
  ASSERT_TRUE(assigner.CreateFilled(1, CacheType::kHidden, 100).ok());
  const CacheMap* map = assigner.Find(1);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->encoding(), BlockEncoding::kInt8);
  EXPECT_EQ(map->block_size(), 64);
  EXPECT_EQ(map->TotalBlocks(), 2);
  EXPECT_EQ(map->capacity(), 128);
  EXPECT_EQ(pool.num_allocated(), 2);

  // Growth within the packed capacity allocates nothing; crossing it
  // allocates one more block per component.
  EXPECT_EQ(assigner.BlocksToGrow(1, 128), 0);
  ASSERT_TRUE(assigner.Append(1, 28).ok());
  EXPECT_EQ(pool.num_allocated(), 2);
  EXPECT_EQ(assigner.BlocksToGrow(1, 129), 1);
  ASSERT_TRUE(assigner.Append(1, 1).ok());
  EXPECT_EQ(pool.num_allocated(), 3);

  ASSERT_TRUE(assigner.Release(1).ok());
  EXPECT_EQ(pool.num_allocated(), 0);
}

TEST(QuantizedAssignerTest, Int8TiersAdmitMoreRequestsAtEqualPoolBytes) {
  // One ShareGPT-length request stream, alternating KV and hidden cache,
  // admitted into the same pool until the first one does not fit.
  Rng rng(77);
  const DatasetProfile lengths = DatasetProfile::ShareGpt();
  std::vector<int32_t> prompt_lens(4096);
  for (int32_t& n : prompt_lens) {
    n = std::max(1, std::min(lengths.input.Sample(&rng), 2047));
  }
  const auto admitted = [&](const CacheEncodingPolicy& policy) {
    BlockPool pool(/*num_blocks=*/1024, /*block_size=*/16);
    HybridCacheAssigner assigner(&pool);
    assigner.SetEncodingPolicy(policy);
    int32_t n = 0;
    for (size_t i = 0; i < prompt_lens.size(); ++i) {
      const CacheType type = i % 2 == 0 ? CacheType::kKV : CacheType::kHidden;
      if (!assigner
               .CreateFilled(static_cast<RequestId>(i), type, prompt_lens[i])
               .ok()) {
        break;
      }
      ++n;
    }
    return n;
  };
  CacheEncodingPolicy int8_hidden;
  int8_hidden.hidden = BlockEncoding::kInt8;
  const int32_t fp32 = admitted(CacheEncodingPolicy{});
  EXPECT_EQ(fp32, 49);
  EXPECT_EQ(admitted(int8_hidden), 66);
  const int32_t all_int8 = admitted(AllInt8());
  EXPECT_EQ(all_int8, 188);
  EXPECT_GE(all_int8, 2 * fp32);
}

TEST(QuantizedEngineTest, TokensBitIdenticalWithQuantizationOff) {
  // The explicit all-fp32 policy must be indistinguishable from never
  // configuring a policy at all — the "quantization off" acceptance bar.
  InferenceEngine plain(Cfg(), 42, 64, 4);
  InferenceEngine configured(Cfg(), 42, 64, 4);
  configured.SetEncodingPolicy(CacheEncodingPolicy{});
  for (InferenceEngine* e : {&plain, &configured}) {
    ASSERT_TRUE(e->AddRequest(1, Prompt(10), CacheType::kKV).ok());
    ASSERT_TRUE(e->AddRequest(2, Prompt(6, 11), CacheType::kHidden).ok());
  }
  auto a1 = plain.Generate(1, 12);
  auto b1 = configured.Generate(1, 12);
  auto a2 = plain.Generate(2, 12);
  auto b2 = configured.Generate(2, 12);
  ASSERT_TRUE(a1.ok() && b1.ok() && a2.ok() && b2.ok());
  EXPECT_EQ(*a1, *b1);
  EXPECT_EQ(*a2, *b2);
}

TEST(QuantizedEngineTest, Int8FitsWhereFp32Cannot) {
  // Equal pool bytes: 4 blocks of 4 slots holds at most 8 KV tokens fp32,
  // but 32 quantized — the capacity win the bench quantifies.
  InferenceEngine fp32(Cfg(), 42, 4, 4);
  ASSERT_TRUE(fp32.AddRequest(1, Prompt(20), CacheType::kKV).ok());
  auto r = fp32.Prefill(1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfMemory());

  InferenceEngine quantized(Cfg(), 42, 4, 4);
  quantized.SetEncodingPolicy(AllInt8());
  ASSERT_TRUE(quantized.AddRequest(1, Prompt(20), CacheType::kKV).ok());
  auto ok = quantized.Generate(1, 8);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(static_cast<int32_t>(ok->size()), 28);
}

TEST(QuantizedEngineTest, SwapRoundTripStableUnderInt8) {
  // Swap stages through an fp32 host buffer; requantization idempotence
  // must make the post-swap-in decode identical to never having swapped.
  for (CacheType type : {CacheType::kKV, CacheType::kHidden}) {
    InferenceEngine control(Cfg(), 9, 64, 4);
    control.SetEncodingPolicy(AllInt8());
    ASSERT_TRUE(control.AddRequest(1, Prompt(8), type).ok());
    auto expected = control.Generate(1, 10);
    ASSERT_TRUE(expected.ok());

    InferenceEngine swapped(Cfg(), 9, 64, 4);
    swapped.SetEncodingPolicy(AllInt8());
    ASSERT_TRUE(swapped.AddRequest(1, Prompt(8), type).ok());
    ASSERT_TRUE(swapped.Generate(1, 4).ok());
    ASSERT_TRUE(swapped.SwapOut(1).ok());
    EXPECT_TRUE(swapped.IsSwappedOut(1));
    ASSERT_TRUE(swapped.SwapIn(1).ok());
    ASSERT_TRUE(swapped.Generate(1, 6).ok());
    EXPECT_EQ(swapped.Find(1)->tokens, *expected)
        << "type=" << CacheTypeName(type);
  }
}

TEST(QuantizedMigrationTest, RawTransportConservesBlocksAndPayload) {
  InferenceEngine src(Cfg(), 21, 32, 4);
  InferenceEngine dst(Cfg(), 21, 32, 4);
  src.SetEncodingPolicy(AllInt8());
  dst.SetEncodingPolicy(AllInt8());

  ASSERT_TRUE(src.AddRequest(1, Prompt(12), CacheType::kKV).ok());
  ASSERT_TRUE(src.Generate(1, 4).ok());
  const GenerationState* gs = src.Find(1);
  ASSERT_NE(gs, nullptr);
  const int32_t cached = gs->cached_tokens;
  const CacheMap* src_map = src.assigner().Find(1);
  ASSERT_NE(src_map, nullptr);
  const int32_t src_blocks = src_map->TotalBlocks();
  EXPECT_EQ(src.pool().num_allocated(), src_blocks);

  // Record the dequantized payload the destination must reproduce.
  const int32_t d = Cfg().d_model, layers = Cfg().n_layers;
  std::vector<std::vector<float>> rows;
  std::vector<float> row(static_cast<size_t>(d));
  for (CacheComponent comp : src_map->Components()) {
    for (int32_t layer = 0; layer < layers; ++layer) {
      for (int32_t pos = 0; pos < cached; ++pos) {
        src.storage().ReadVector(*src_map, comp, layer, pos, row.data());
        rows.push_back(row);
      }
    }
  }

  auto image = src.ExportRequest(1);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->payload_encoding, BlockEncoding::kInt8);
  EXPECT_TRUE(image->payload.empty());
  EXPECT_EQ(image->qpayload.size(),
            static_cast<size_t>(2) * layers * cached * d);
  EXPECT_EQ(image->qscale.size(), static_cast<size_t>(2) * layers * cached);
  // Conservation at the source: every block returned to the free list.
  EXPECT_EQ(src.pool().num_allocated(), 0);
  EXPECT_EQ(src.pool().total_exported_blocks(), src_blocks);
  EXPECT_EQ(src.Find(1), nullptr);

  auto import = dst.ImportRequest(1, *image);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_TRUE(import->cache_restored);
  EXPECT_EQ(import->copied_tokens, cached);
  // Int8 transport bytes: dim codes + scale/zero per vector.
  EXPECT_DOUBLE_EQ(import->bytes,
                   static_cast<double>(cached) * 2 * layers * (d + 8.0));

  // Conservation at the destination: the packed block count, every block
  // privately owned (refcount 1), lifetime import counter advanced.
  const CacheMap* dst_map = dst.assigner().Find(1);
  ASSERT_NE(dst_map, nullptr);
  EXPECT_EQ(dst_map->encoding(), BlockEncoding::kInt8);
  EXPECT_EQ(dst_map->num_tokens(), cached);
  EXPECT_EQ(dst_map->TotalBlocks(), src_blocks);
  EXPECT_EQ(dst.pool().num_allocated(), src_blocks);
  EXPECT_EQ(dst.pool().total_imported_blocks(), src_blocks);
  for (BlockId b : dst_map->AllBlocks()) {
    EXPECT_EQ(dst.pool().RefCount(b), 1) << "block " << b;
  }

  // Raw-code transport is exact: dequantized reads match the source's.
  size_t idx = 0;
  for (CacheComponent comp : dst_map->Components()) {
    for (int32_t layer = 0; layer < layers; ++layer) {
      for (int32_t pos = 0; pos < cached; ++pos, ++idx) {
        dst.storage().ReadVector(*dst_map, comp, layer, pos, row.data());
        ASSERT_EQ(row, rows[idx]) << "layer=" << layer << " pos=" << pos;
      }
    }
  }

  // The migrated request decodes exactly like an unmigrated control.
  InferenceEngine control(Cfg(), 21, 32, 4);
  control.SetEncodingPolicy(AllInt8());
  ASSERT_TRUE(control.AddRequest(1, Prompt(12), CacheType::kKV).ok());
  auto expected = control.Generate(1, 10);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(dst.Generate(1, 6).ok());
  EXPECT_EQ(dst.Find(1)->tokens, *expected);

  // Full conservation: releasing the request drains the destination pool.
  ASSERT_TRUE(dst.RemoveRequest(1).ok());
  EXPECT_EQ(dst.pool().num_allocated(), 0);
}

TEST(QuantizedMigrationTest, QuantizeInTransitShrinksFp32Payload) {
  // Fp32 tiers with quantize_migration_payload: the payload crosses the
  // interconnect as int8 (lossy, ~4x fewer bytes) and lands back in fp32
  // blocks at the destination.
  CacheEncodingPolicy transit;
  transit.quantize_migration_payload = true;
  InferenceEngine src(Cfg(), 33, 32, 4);
  InferenceEngine dst(Cfg(), 33, 32, 4);
  src.SetEncodingPolicy(transit);

  ASSERT_TRUE(src.AddRequest(1, Prompt(10), CacheType::kKV).ok());
  ASSERT_TRUE(src.Generate(1, 3).ok());
  const int32_t cached = src.Find(1)->cached_tokens;

  auto image = src.ExportRequest(1);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->payload_encoding, BlockEncoding::kInt8);

  const int32_t d = Cfg().d_model, layers = Cfg().n_layers;
  auto import = dst.ImportRequest(1, *image);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  ASSERT_TRUE(import->cache_restored);
  const double fp32_bytes =
      static_cast<double>(cached) * 2 * layers * d * sizeof(float);
  EXPECT_DOUBLE_EQ(import->bytes,
                   static_cast<double>(cached) * 2 * layers * (d + 8.0));
  EXPECT_LT(import->bytes, 0.35 * fp32_bytes);

  // The destination map is fp32 and the request keeps decoding (the
  // transit quantization is lossy, so no token-stream claim).
  EXPECT_EQ(dst.assigner().Find(1)->encoding(), BlockEncoding::kFp32);
  auto cont = dst.Generate(1, 5);
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  EXPECT_EQ(static_cast<int32_t>(cont->size()), 10 + 3 + 5);
}

TEST(QuantizedEngineTest, PrefixSharingGatesOffForInt8Kv) {
  // Two identical prompts on an int8-KV engine with sharing enabled: no
  // seeded map may be created (shared blocks must be exact across
  // adopters), and both requests still generate the same stream.
  InferenceEngine engine(Cfg(), 55, 64, 4);
  engine.SetEncodingPolicy(AllInt8());
  engine.assigner().EnablePrefixSharing();
  ASSERT_TRUE(engine.AddRequest(1, Prompt(12), CacheType::kKV).ok());
  ASSERT_TRUE(engine.AddRequest(2, Prompt(12), CacheType::kKV).ok());
  auto t1 = engine.Generate(1, 6);
  auto t2 = engine.Generate(2, 6);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
  EXPECT_EQ(engine.assigner().num_seeded(), 0);
  EXPECT_EQ(engine.pool().num_shared(), 0);
}

}  // namespace
}  // namespace aptserve
