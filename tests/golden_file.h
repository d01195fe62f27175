#ifndef SPHERE_TESTS_GOLDEN_FILE_H_
#define SPHERE_TESTS_GOLDEN_FILE_H_

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

namespace sphere::golden {

/// Expects `actual` to equal record `key` of the golden file at `path` byte
/// for byte. A golden file holds records keyed by the text after each `== `
/// header line, each running up to the next header; `#` lines before the
/// first header describe the file. Each file is read once per process.
inline void ExpectMatchesRecord(const std::string& path, const std::string& key,
                                const std::string& actual) {
  static std::map<std::string, std::map<std::string, std::string>> files;
  auto [file, unread] = files.try_emplace(path);
  if (unread) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::string line;
    std::string* current = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("== ", 0) == 0) {
        current = &file->second[line.substr(3)];
      } else if (current != nullptr) {
        *current += line + "\n";
      }
    }
  }
  auto it = file->second.find(key);
  ASSERT_NE(it, file->second.end()) << "no golden record " << key;
  EXPECT_EQ(actual, it->second) << key;
}

}  // namespace sphere::golden

#endif  // SPHERE_TESTS_GOLDEN_FILE_H_
