// The BlockStore contract: handles are created once, unknown or erased
// handles are refused, and a block keeps the words assigned to it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/types.hpp"

namespace mpcspan {
namespace {

using runtime::BlockStore;

TEST(BlockStore, DuplicateCreateThrows) {
  BlockStore store(2);
  store.create(1);
  store.block(1, 0) = {4, 5};
  EXPECT_THROW(store.create(1), std::invalid_argument);
  // The refused create leaves the existing blocks alone.
  EXPECT_EQ(store.block(1, 0), (std::vector<Word>{4, 5}));
}

TEST(BlockStore, UnknownOrErasedHandleThrows) {
  BlockStore store(2);
  EXPECT_THROW(store.block(9, 0), std::out_of_range);
  store.create(9);
  EXPECT_THROW(store.block(9, 2), std::out_of_range);  // machine out of range
  store.erase(9);
  EXPECT_THROW(store.block(9, 0), std::out_of_range);
  const BlockStore& view = store;
  EXPECT_THROW(view.block(9, 0), std::out_of_range);
}

TEST(BlockStore, AssignedBlockKeepsItsWords) {
  BlockStore store(2);
  store.create(1);
  EXPECT_TRUE(store.block(1, 0).empty());
  const std::vector<Word> copied{1, 2, 3};
  store.block(1, 0) = copied;
  std::vector<Word> moved{7, 8, 9, 10};
  store.block(1, 1) = std::move(moved);
  store.create(2);  // a second handle does not disturb the first
  store.block(2, 0) = {42};
  EXPECT_EQ(store.block(1, 0), copied);
  EXPECT_EQ(store.block(1, 1), (std::vector<Word>{7, 8, 9, 10}));
  EXPECT_EQ(store.block(2, 0), (std::vector<Word>{42}));
  EXPECT_TRUE(store.block(2, 1).empty());
}

}  // namespace
}  // namespace mpcspan
