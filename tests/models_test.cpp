// Model-zoo tests: the per-layer quantities must match the published
// architectures (parameter counts are the strongest checksum available).
#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/units.hpp"
#include "models/model.hpp"
#include "models/zoo.hpp"

namespace autopipe::models {
namespace {

double total_params(const ModelSpec& m) {
  return m.total_param_bytes() / 4.0;  // fp32
}

TEST(Zoo, Vgg16ParameterCount) {
  const ModelSpec m = vgg16();
  // Published: 138.36M parameters.
  EXPECT_NEAR(total_params(m) / 1e6, 138.36, 1.0);
  EXPECT_EQ(m.default_batch_size(), 64u);
  EXPECT_EQ(m.num_layers(), 21u);  // 13 conv + 5 pool + 3 fc
}

TEST(Zoo, AlexNetParameterCount) {
  const ModelSpec m = alexnet();
  // Published single-tower AlexNet: ≈61M parameters.
  EXPECT_NEAR(total_params(m) / 1e6, 61.0, 3.0);
  EXPECT_EQ(m.default_batch_size(), 256u);
}

TEST(Zoo, ResNet50ParameterCount) {
  const ModelSpec m = resnet50();
  // Published: 25.5M; we omit projection shortcuts (~1.5M) and batchnorm.
  EXPECT_NEAR(total_params(m) / 1e6, 24.0, 2.5);
  EXPECT_EQ(m.default_batch_size(), 128u);
  // One unit per conv: ResNet50 exposes the most partition points.
  EXPECT_GT(m.num_layers(), vgg16().num_layers());
}

TEST(Zoo, Bert48ParameterCount) {
  const ModelSpec m = bert48();
  // 48 layers x ~12.6M + 31M embeddings ≈ 635M.
  EXPECT_NEAR(total_params(m) / 1e6, 635.0, 30.0);
  EXPECT_EQ(m.num_layers(), 50u);  // embedding + 48 blocks + pooler
}

TEST(Zoo, Vgg16FlopsPerSample) {
  // Published ≈ 15.5 GMACs forward ≈ 31 GFLOPs with the 2*MACs convention.
  const ModelSpec m = vgg16();
  double fwd = 0.0;
  for (std::size_t l = 0; l < m.num_layers(); ++l) fwd += m.fwd_flops(l, 1);
  EXPECT_NEAR(fwd / 1e9, 31.0, 3.0);
}

TEST(Zoo, ResNetFlopsPerSample) {
  // Published ≈ 4.1 GMACs forward ≈ 8.2 GFLOPs.
  const ModelSpec m = resnet50();
  double fwd = 0.0;
  for (std::size_t l = 0; l < m.num_layers(); ++l) fwd += m.fwd_flops(l, 1);
  EXPECT_NEAR(fwd / 1e9, 8.0, 1.5);
}

TEST(Zoo, ImageModelsListAndLookup) {
  const auto list = image_models();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].name(), "resnet50");
  EXPECT_EQ(model_by_name("vgg16").name(), "vgg16");
  EXPECT_THROW(model_by_name("lenet"), contract_error);
}

TEST(ModelSpec, GradientBytesMirrorUpstreamActivation) {
  const ModelSpec m = vgg16();
  for (std::size_t l = 1; l < m.num_layers(); ++l) {
    EXPECT_DOUBLE_EQ(m.gradient_bytes(l, 64), m.activation_bytes(l - 1, 64));
  }
  EXPECT_DOUBLE_EQ(m.gradient_bytes(0, 64), 0.0);
}

TEST(ModelSpec, QuantitiesScaleWithBatch) {
  const ModelSpec m = alexnet();
  EXPECT_DOUBLE_EQ(m.activation_bytes(0, 64) * 2, m.activation_bytes(0, 128));
  EXPECT_DOUBLE_EQ(m.fwd_flops(0, 64) * 2, m.fwd_flops(0, 128));
}

TEST(ModelSpec, BackwardCostsTwiceForward) {
  const ModelSpec m = vgg16();
  EXPECT_DOUBLE_EQ(m.bwd_flops(0, 1), 2.0 * m.fwd_flops(0, 1));
}

TEST(ModelSpec, RangeAggregatesMatchLoop) {
  const ModelSpec m = resnet50();
  double fwd = 0.0, params = 0.0;
  for (std::size_t l = 3; l <= 9; ++l) {
    fwd += m.fwd_flops(l, 32);
    params += m.param_bytes(l);
  }
  EXPECT_DOUBLE_EQ(m.range_fwd_flops(3, 9, 32), fwd);
  EXPECT_DOUBLE_EQ(m.range_param_bytes(3, 9), params);
}

TEST(ModelSpec, InvalidAccessThrows) {
  const ModelSpec m = alexnet();
  EXPECT_THROW(m.layer(m.num_layers()), contract_error);
  EXPECT_THROW(m.activation_bytes(m.num_layers(), 1), contract_error);
  EXPECT_THROW(m.range_fwd_flops(5, 3, 1), contract_error);
}

TEST(ConvNetBuilder, TracksSpatialDims) {
  ConvNetBuilder b("tiny", 3, 32, 32);
  b.conv("c1", 8, 3);  // same padding: 32x32
  EXPECT_EQ(b.height(), 32u);
  b.maxpool("p1", 2, 2);  // 16x16
  EXPECT_EQ(b.height(), 16u);
  EXPECT_EQ(b.channels(), 8u);
  b.global_avgpool("gap");
  EXPECT_EQ(b.height(), 1u);
  b.fc("fc", 10);
  const ModelSpec m = std::move(b).build(4);
  EXPECT_EQ(m.num_layers(), 4u);
  // fc params: 8*10 weights + 10 biases.
  EXPECT_DOUBLE_EQ(m.param_bytes(3), (8 * 10 + 10) * 4.0);
}

TEST(ConvNetBuilder, AlexNetFirstLayerShape) {
  // conv1: 11x11/4 pad 2 on 224 -> (224+4-11)/4+1 = 55.
  ConvNetBuilder b("a", 3, 224, 224);
  b.conv("conv1", 96, 11, 4, 2);
  EXPECT_EQ(b.height(), 55u);
  EXPECT_EQ(b.width(), 55u);
}

TEST(ConvNetBuilder, PoolLayersHaveNoParams) {
  const ModelSpec m = vgg16();
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    if (m.layer(l).name.rfind("pool", 0) == 0) {
      EXPECT_DOUBLE_EQ(m.param_bytes(l), 0.0);
    }
  }
}

TEST(ModelSpec, Bert48BlocksAreUniform) {
  const ModelSpec m = bert48();
  // All 48 transformer blocks identical — the "evenly split structurally
  // uniform model" case of Megatron/Chimera.
  for (std::size_t l = 2; l < 49; ++l) {
    EXPECT_DOUBLE_EQ(m.param_bytes(l), m.param_bytes(1));
    EXPECT_DOUBLE_EQ(m.fwd_flops(l, 1), m.fwd_flops(1, 1));
  }
}


TEST(Zoo, ResNet18ParameterCount) {
  const ModelSpec m = resnet18();
  // Published: 11.7M (we omit downsample shortcuts and batchnorm).
  EXPECT_NEAR(m.total_param_bytes() / 4.0 / 1e6, 11.2, 1.2);
  EXPECT_LT(m.num_layers(), resnet50().num_layers());
}

TEST(Zoo, Gpt2SmallParameterCount) {
  const ModelSpec m = gpt2_small();
  // Published: 124M parameters (tied lm_head).
  EXPECT_NEAR(m.total_param_bytes() / 4.0 / 1e6, 124.0, 10.0);
  EXPECT_EQ(m.num_layers(), 14u);  // embedding + 12 blocks + lm_head
  EXPECT_EQ(model_by_name("gpt2").name(), "gpt2-small");
}

}  // namespace
}  // namespace autopipe::models
